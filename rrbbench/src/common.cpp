#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <thread>

#include "cli/cli.h"
#include "kernels/autobench.h"
#include "sim/types.h"

namespace rrbbench {

bool Ledger::record(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::cerr << "rrbbench: FAILED " << what << "\n";
    }
    return ok;
}

std::string Ledger::json() const {
    std::string s = "{\"correct\": ";
    s += failed_ == 0 ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted_);
    s += ", \"failed\": " + std::to_string(failed_);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric& m = metrics_[i];
        if (i > 0) s += ", ";
        s += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
             ", \"unit\": " + json_string(m.unit) + "}";
    }
    s += "}}";
    return s;
}

std::string json_number(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string json_string(const std::string& text) {
    std::string s = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            s += '\\';
            s += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            s += buf;
        } else {
            s += c;
        }
    }
    return s + "\"";
}

double quantile(std::vector<double> samples, double q) {
    if (samples.empty()) return std::nan("");
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

std::uint64_t derive_seed(std::uint64_t root, std::uint64_t stream,
                          std::uint64_t index) {
    // SplitMix64 over a golden-ratio combination of the three inputs.
    std::uint64_t z = root * 0x9e3779b97f4a7c15ULL +
                      (stream + 1) * 0xbf58476d1ce4e5b9ULL +
                      (index + 1) * 0x94d049bb133111ebULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return 1 + (z & 0x7fff'ffffULL);
}

std::size_t full_width() {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

int run_cli(const std::vector<std::string>& args, std::string* out) {
    std::ostringstream out_stream;
    std::ostringstream err_stream;
    const int code = rrb::cli::run(args, out_stream, err_stream);
    if (out != nullptr) *out = out_stream.str();
    return code;
}

std::string from_line_two(const std::string& report) {
    const std::size_t eol = report.find('\n');
    return eol == std::string::npos ? std::string() : report.substr(eol + 1);
}

namespace {

bool same_double(double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

bool same_bits(const rrb::PwcetCampaignResult& a,
               const rrb::PwcetCampaignResult& b) {
    if (a.et_isolation != b.et_isolation || a.nr != b.nr ||
        a.runs != b.runs || a.high_water_mark != b.high_water_mark ||
        a.low_water_mark != b.low_water_mark || a.blocks != b.blocks ||
        a.live_values != b.live_values ||
        a.fit.sample_size != b.fit.sample_size ||
        a.quantiles.size() != b.quantiles.size()) {
        return false;
    }
    if (!same_double(a.mean, b.mean) || !same_double(a.stddev, b.stddev) ||
        !same_double(a.fit.mu, b.fit.mu) ||
        !same_double(a.fit.beta, b.fit.beta)) {
        return false;
    }
    for (std::size_t i = 0; i < a.quantiles.size(); ++i) {
        if (!same_double(a.quantiles[i].exceedance,
                         b.quantiles[i].exceedance) ||
            !same_double(a.quantiles[i].pwcet, b.quantiles[i].pwcet)) {
            return false;
        }
    }
    return true;
}

rrb::Scenario cli_scenario(std::uint64_t iterations, std::size_t runs,
                           std::uint64_t seed) {
    return rrb::Scenario::on(rrb::MachineConfig::ngmp_ref())
        .scua(rrb::make_autobench(rrb::Autobench::kCacheb, 0x0100'0000,
                                  iterations, 9))
        .rsk_contenders(rrb::OpKind::kLoad)
        .runs(runs)
        .seed(seed);
}

Workspace::Workspace(std::filesystem::path root) : root_(std::move(root)) {
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
}

Workspace::~Workspace() {
    std::error_code ignored;
    std::filesystem::remove_all(root_, ignored);
}

std::filesystem::path Workspace::fresh(const std::string& name) const {
    const std::filesystem::path dir = root_ / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

}  // namespace rrbbench
