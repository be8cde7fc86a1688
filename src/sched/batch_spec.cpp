#include "sched/batch_spec.h"

#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "kernels/autobench.h"
#include "sim/parse.h"

namespace rrb::sched {

namespace {

/// One [scenario] block as written, before materialization. Defaults
/// mirror the pwcet command's flag defaults — the equivalence the CI
/// byte-diff relies on.
struct SpecEntry {
    std::string name;
    std::size_t line = 0;  ///< where the block header sits (messages)
    std::optional<CoreId> cores;
    std::optional<Cycle> lbus;
    bool variant = false;
    std::optional<ArbiterKind> arbiter;
    std::uint64_t iterations = 40;
    std::optional<std::size_t> runs;
    std::uint64_t seed = 1;
    std::size_t block_size = 50;
    std::vector<double> exceedance;
    std::optional<Cycle> max_start_delay;
};

[[noreturn]] void fail(std::size_t line, const std::string& what) {
    throw std::invalid_argument("batch spec line " + std::to_string(line) +
                                ": " + what);
}

std::string_view trim(std::string_view text) {
    while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
        text.remove_prefix(1);
    }
    while (!text.empty() &&
           (text.back() == ' ' || text.back() == '\t' ||
            text.back() == '\r')) {
        text.remove_suffix(1);
    }
    return text;
}

bool safe_name(std::string_view name) {
    if (name.empty()) return false;
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                        c == '-';
        if (!ok) return false;
    }
    return true;
}

/// `text` as a T, or a spec error naming the line and key: a value
/// that would truncate on the way into the scenario field fails here
/// instead of running a scenario nobody wrote.
template <typename T>
T parse_number(std::string_view text, std::size_t line,
               const std::string& key) {
    const std::optional<T> value = parse_decimal<T>(text);
    if (!value) fail(line, key + " needs " + decimal_range<T>());
    return *value;
}

bool parse_bool(std::string_view text, std::size_t line,
                const std::string& key) {
    if (text == "true" || text == "1" || text == "yes") return true;
    if (text == "false" || text == "0" || text == "no") return false;
    fail(line, key + " needs true or false");
}

ArbiterKind parse_arbiter(std::string_view text, std::size_t line) {
    if (text == "rr") return ArbiterKind::kRoundRobin;
    if (text == "tdma") return ArbiterKind::kTdma;
    if (text == "wrr") return ArbiterKind::kWeightedRoundRobin;
    if (text == "fixed") return ArbiterKind::kFixedPriority;
    fail(line, "unknown arbiter '" + std::string(text) +
                   "' (rr, tdma, wrr, fixed)");
}

std::vector<double> parse_exceedance(std::string_view text,
                                     std::size_t line) {
    std::vector<double> values;
    std::string item;
    std::istringstream stream{std::string(text)};
    while (std::getline(stream, item, ',')) {
        const std::string_view trimmed = trim(item);
        char* end = nullptr;
        const std::string owned(trimmed);
        const double value = std::strtod(owned.c_str(), &end);
        if (owned.empty() || end != owned.c_str() + owned.size() ||
            !(value > 0.0 && value < 1.0)) {
            fail(line, "exceedance needs probabilities in (0,1), got '" +
                           owned + "'");
        }
        values.push_back(value);
    }
    if (values.empty()) {
        fail(line, "exceedance needs a comma-separated probability list");
    }
    return values;
}

void apply_key(SpecEntry& entry, std::string_view key,
               std::string_view value, std::size_t line) {
    const std::string k(key);
    if (key == "cores") {
        entry.cores = parse_number<CoreId>(value, line, k);
    } else if (key == "lbus") {
        entry.lbus = parse_number<Cycle>(value, line, k);
    } else if (key == "var") {
        entry.variant = parse_bool(value, line, k);
    } else if (key == "arbiter") {
        entry.arbiter = parse_arbiter(value, line);
    } else if (key == "iterations") {
        entry.iterations = parse_number<std::uint64_t>(value, line, k);
    } else if (key == "runs") {
        entry.runs = parse_number<std::size_t>(value, line, k);
    } else if (key == "seed") {
        entry.seed = parse_number<std::uint64_t>(value, line, k);
    } else if (key == "block-size") {
        entry.block_size = parse_number<std::size_t>(value, line, k);
        if (entry.block_size == 0) {
            fail(line, "block-size must be at least 1");
        }
    } else if (key == "exceedance") {
        entry.exceedance = parse_exceedance(value, line);
    } else if (key == "max-start-delay") {
        entry.max_start_delay = parse_number<Cycle>(value, line, k);
    } else {
        fail(line, "unknown key '" + k + "'");
    }
}

/// The pwcet command's scenario construction, key for key: scaled
/// platform when cores/lbus are set (defaults 4 / 9), NGMP ref/var
/// otherwise; cache-buster scua against load-rsk contenders; runs
/// defaulting to 40 blocks. Divergence here would silently break the
/// batch-vs-standalone byte-identity the spec format promises.
BatchItem materialize(const SpecEntry& entry) {
    MachineConfig config =
        (entry.cores.has_value() || entry.lbus.has_value())
            ? MachineConfig::scaled(entry.cores.value_or(4),
                                    entry.lbus.value_or(9))
            : (entry.variant ? MachineConfig::ngmp_var()
                             : MachineConfig::ngmp_ref());
    if (entry.arbiter.has_value()) config.arbiter = *entry.arbiter;
    config.validate();

    Scenario scenario =
        Scenario::on(config)
            .scua(make_autobench(Autobench::kCacheb, 0x0100'0000,
                                 entry.iterations, 9))
            .rsk_contenders(OpKind::kLoad)
            .runs(entry.runs.value_or(40 * entry.block_size))
            .seed(entry.seed);
    if (entry.max_start_delay.has_value()) {
        scenario.max_start_delay(*entry.max_start_delay);
    }

    PwcetSpec spec;
    spec.block_size = entry.block_size;
    if (!entry.exceedance.empty()) spec.exceedance = entry.exceedance;
    return BatchItem{entry.name, std::move(scenario), std::move(spec)};
}

}  // namespace

std::vector<BatchItem> parse_batch_spec(const std::string& text) {
    std::vector<SpecEntry> entries;
    std::istringstream stream(text);
    std::string raw;
    std::size_t line_no = 0;
    while (std::getline(stream, raw)) {
        ++line_no;
        const std::string_view line = trim(raw);
        if (line.empty() || line.front() == '#') continue;
        if (line.front() == '[') {
            if (line.back() != ']') fail(line_no, "unterminated '['");
            const std::string_view inner =
                trim(line.substr(1, line.size() - 2));
            constexpr std::string_view kPrefix = "scenario";
            if (inner.substr(0, kPrefix.size()) != kPrefix ||
                inner.size() == kPrefix.size() ||
                (inner[kPrefix.size()] != ' ' &&
                 inner[kPrefix.size()] != '\t')) {
                fail(line_no, "expected [scenario NAME]");
            }
            const std::string_view name = trim(inner.substr(kPrefix.size()));
            if (!safe_name(name)) {
                fail(line_no, "scenario name must be non-empty and use "
                              "only [A-Za-z0-9._-]");
            }
            for (const SpecEntry& e : entries) {
                if (e.name == name) {
                    fail(line_no, "duplicate scenario name '" +
                                      std::string(name) + "'");
                }
            }
            SpecEntry entry;
            entry.name = std::string(name);
            entry.line = line_no;
            entries.push_back(std::move(entry));
            continue;
        }
        const std::size_t eq = line.find('=');
        if (eq == std::string_view::npos) {
            fail(line_no, "expected 'key = value' or [scenario NAME]");
        }
        if (entries.empty()) {
            fail(line_no, "key outside any [scenario] block");
        }
        apply_key(entries.back(), trim(line.substr(0, eq)),
                  trim(line.substr(eq + 1)), line_no);
    }
    if (entries.empty()) {
        throw std::invalid_argument(
            "batch spec declares no [scenario] blocks");
    }

    std::vector<BatchItem> items;
    items.reserve(entries.size());
    for (const SpecEntry& entry : entries) {
        items.push_back(materialize(entry));
    }
    return items;
}

}  // namespace rrb::sched
