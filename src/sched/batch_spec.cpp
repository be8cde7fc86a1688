#include "sched/batch_spec.h"

#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "sim/parse.h"

namespace rrb::sched {

namespace {

/// One [scenario] block as written: its name and the knobs its keys
/// set, which build_campaign turns into the scenario exactly as it does
/// the pwcet command's flags.
struct SpecEntry {
    std::string name;
    CampaignKnobs knobs;
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

std::vector<double> parse_exceedance(std::string_view text,
                                     std::size_t line) {
    std::vector<double> values;
    std::string item;
    std::istringstream stream{std::string(text)};
    while (std::getline(stream, item, ',')) {
        const std::string_view trimmed = trim(item);
        const std::optional<double> value = parse_real(trimmed);
        if (!value || !(*value > 0.0 && *value < 1.0)) {
            fail(line, "exceedance needs probabilities in (0,1), got '" +
                           std::string(trimmed) + "'");
        }
        values.push_back(*value);
    }
    if (values.empty()) {
        fail(line, "exceedance needs a comma-separated probability list");
    }
    return values;
}

void apply_key(CampaignKnobs& knobs, std::string_view key,
               std::string_view value, std::size_t line) {
    const std::string k(key);
    if (key == "cores") {
        knobs.cores = parse_number<CoreId>(value, line, k);
    } else if (key == "lbus") {
        knobs.lbus = parse_number<Cycle>(value, line, k);
    } else if (key == "var") {
        knobs.variant = parse_bool(value, line, k);
    } else if (key == "arbiter") {
        knobs.arbiter = arbiter_named(value);
        if (!knobs.arbiter) {
            fail(line, "unknown arbiter '" + std::string(value) +
                           "' (rr, tdma, wrr, fixed)");
        }
    } else if (key == "iterations") {
        knobs.iterations = parse_number<std::uint64_t>(value, line, k);
    } else if (key == "runs") {
        knobs.runs = parse_number<std::size_t>(value, line, k);
    } else if (key == "seed") {
        knobs.seed = parse_number<std::uint64_t>(value, line, k);
    } else if (key == "block-size") {
        knobs.block_size = parse_number<std::size_t>(value, line, k);
        if (knobs.block_size == 0) {
            fail(line, "block-size must be at least 1");
        }
    } else if (key == "exceedance") {
        knobs.exceedance = parse_exceedance(value, line);
    } else if (key == "max-start-delay") {
        knobs.max_start_delay = parse_number<Cycle>(value, line, k);
    } else {
        fail(line, "unknown key '" + k + "'");
    }
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
            entries.push_back({std::string(name), {}});
            continue;
        }
        const std::size_t eq = line.find('=');
        if (eq == std::string_view::npos) {
            fail(line_no, "expected 'key = value' or [scenario NAME]");
        }
        if (entries.empty()) {
            fail(line_no, "key outside any [scenario] block");
        }
        apply_key(entries.back().knobs, trim(line.substr(0, eq)),
                  trim(line.substr(eq + 1)), line_no);
    }
    if (entries.empty()) {
        throw std::invalid_argument(
            "batch spec declares no [scenario] blocks");
    }

    std::vector<BatchItem> items;
    items.reserve(entries.size());
    for (const SpecEntry& entry : entries) {
        CampaignSetup setup = build_campaign(entry.knobs);
        items.push_back({entry.name, std::move(setup.scenario),
                         std::move(setup.spec)});
    }
    return items;
}

}  // namespace rrb::sched
