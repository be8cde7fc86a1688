#include "fault/fault.h"

#include <cstdlib>
#include <optional>

#include "sim/parse.h"

namespace rrb::fault {

const char* site_name(Site s) noexcept {
    switch (s) {
        case Site::kCheckpointTruncate: return "ckpt-truncate";
        case Site::kCheckpointFsync: return "ckpt-fsync";
        case Site::kCheckpointRename: return "ckpt-rename";
        case Site::kShardThrow: return "shard-throw";
        case Site::kDecodeOverflow: return "decode-overflow";
        case Site::kTransientIo: return "transient-io";
        case Site::kSiteCount: break;
    }
    return "unknown";
}

namespace detail {
std::atomic<bool> g_armed{false};
}  // namespace detail

namespace {

/// SplitMix64 finalizer — the same mixer the engine derives per-run
/// seeds with, re-stated locally so fault/ stays a leaf module with no
/// dependency on engine/.
std::uint64_t mix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

[[noreturn]] void malformed(const std::string& entry,
                            const std::string& why) {
    throw std::invalid_argument("malformed fault spec entry '" + entry +
                                "': " + why);
}

std::uint64_t parse_u64(const std::string& entry, const std::string& text,
                        const std::string& what) {
    if (text.empty()) malformed(entry, what + " is empty");
    const std::optional<std::uint64_t> value =
        parse_decimal<std::uint64_t>(text);
    if (!value) {
        malformed(entry, what + " '" + text + "' is not " +
                             decimal_range<std::uint64_t>());
    }
    return *value;
}

}  // namespace

FaultInjector& FaultInjector::instance() {
    // Leaked: hooks may evaluate during static teardown.
    static FaultInjector* injector = new FaultInjector();
    return *injector;
}

void FaultInjector::arm(const std::string& spec) {
    // Parse into locals first: a malformed spec must leave the
    // previously armed rules untouched.
    std::vector<Rule> rules;
    std::uint64_t seed = 0;
    std::size_t begin = 0;
    while (begin <= spec.size()) {
        std::size_t end = spec.find(',', begin);
        if (end == std::string::npos) end = spec.size();
        const std::string entry = spec.substr(begin, end - begin);
        begin = end + 1;
        if (entry.empty()) {
            if (spec.empty()) break;
            malformed(spec, "empty entry");
        }
        if (entry.rfind("seed=", 0) == 0) {
            seed = parse_u64(entry, entry.substr(5), "seed");
            continue;
        }
        Rule rule;
        std::string head = entry;
        const std::size_t colon = head.find(':');
        std::string trigger = "*";
        if (colon != std::string::npos) {
            trigger = head.substr(colon + 1);
            head = head.substr(0, colon);
        }
        const std::size_t at = head.find('@');
        if (at != std::string::npos) {
            rule.has_key = true;
            rule.key = parse_u64(entry, head.substr(at + 1), "key");
            head = head.substr(0, at);
        }
        rule.site = Site::kSiteCount;
        for (unsigned s = 0; s < static_cast<unsigned>(Site::kSiteCount);
             ++s) {
            if (head == site_name(static_cast<Site>(s))) {
                rule.site = static_cast<Site>(s);
                break;
            }
        }
        if (rule.site == Site::kSiteCount) {
            malformed(entry, "unknown site '" + head + "'");
        }
        if (trigger == "*") {
            rule.mode = Rule::kAlways;
        } else if (!trigger.empty() && trigger.front() == '~') {
            rule.mode = Rule::kRate;
            rule.rate = parse_u64(entry, trigger.substr(1), "rate");
            if (rule.rate == 0) malformed(entry, "rate must be >= 1");
        } else {
            rule.mode = Rule::kWindow;
            const std::size_t plus = trigger.find('+');
            if (plus == std::string::npos) {
                rule.first = parse_u64(entry, trigger, "first");
                rule.count = 1;
            } else {
                rule.first =
                    parse_u64(entry, trigger.substr(0, plus), "first");
                rule.count =
                    parse_u64(entry, trigger.substr(plus + 1), "count");
            }
            if (rule.first == 0) {
                malformed(entry, "first is 1-based, must be >= 1");
            }
        }
        rules.push_back(rule);
    }
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        rules_ = std::move(rules);
        seed_ = seed;
    }
    detail::g_armed.store(!spec.empty(), std::memory_order_relaxed);
}

void FaultInjector::disarm() {
    detail::g_armed.store(false, std::memory_order_relaxed);
}

bool FaultInjector::evaluate(Site site, std::uint64_t key) noexcept {
    const std::lock_guard<std::mutex> lock(mutex_);
    bool fire = false;
    for (Rule& rule : rules_) {
        if (rule.site != site) continue;
        if (rule.has_key && rule.key != key) continue;
        const std::uint64_t index = ++rule.evaluations;  // 1-based
        bool hit = false;
        switch (rule.mode) {
            case Rule::kAlways:
                hit = true;
                break;
            case Rule::kWindow:
                hit = index >= rule.first &&
                      index < rule.first + rule.count;
                break;
            case Rule::kRate:
                hit = mix64(seed_ ^
                            (static_cast<std::uint64_t>(site) << 32) ^
                            index) %
                          rule.rate ==
                      0;
                break;
        }
        if (hit) {
            ++rule.fired;
            fire = true;
        }
    }
    return fire;
}

std::uint64_t FaultInjector::evaluations(Site site) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const Rule& rule : rules_) {
        if (rule.site == site) total += rule.evaluations;
    }
    return total;
}

std::uint64_t FaultInjector::fired(Site site) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const Rule& rule : rules_) {
        if (rule.site == site) total += rule.fired;
    }
    return total;
}

ScopedEnvArm::ScopedEnvArm() {
    if (armed()) return;  // a test armed programmatically; keep it
    const char* spec = std::getenv("RRB_FAULTS");
    if (spec == nullptr || *spec == '\0') return;
    FaultInjector::instance().arm(spec);
    armed_here_ = true;
}

ScopedEnvArm::~ScopedEnvArm() {
    if (armed_here_) FaultInjector::instance().disarm();
}

}  // namespace rrb::fault
