#include "common/telemetry/slo.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "common/json_io.hpp"
#include "common/telemetry/flight_recorder.hpp"

namespace wifisense::common {

namespace {

/// One ring for both burn windows: the wider of the two.
double monitor_window(const SloSpec& spec) {
    return std::max(spec.slow_window_s, spec.fast_window_s);
}

/// Error-budget burn rate of one window: observed error fraction over the
/// sustainable fraction. availability_pct == 100 leaves no budget at all,
/// so any error saturates the burn.
double burn_rate(std::uint64_t errors, std::uint64_t total,
                 double availability_pct) {
    if (total == 0) return 0.0;
    const double err_frac =
        static_cast<double>(errors) / static_cast<double>(total);
    const double budget = 1.0 - availability_pct / 100.0;
    if (budget <= 0.0) return err_frac > 0.0 ? 1e9 : 0.0;
    return err_frac / budget;
}

struct SloRegistry {
    std::mutex mu;
    std::map<std::string, std::unique_ptr<SloMonitor>, std::less<>> monitors;
};

SloRegistry& slo_registry() {
    static SloRegistry r;
    return r;
}

}  // namespace

[[nodiscard]] std::string SloSpec::to_spec() const {
    char buf[256];
    const char* qname = latency_quantile >= 0.999  ? "p999"
                        : latency_quantile >= 0.99 ? "p99"
                        : latency_quantile >= 0.9  ? "p90"
                                                   : "p50";
    std::string out = "name=" + name;
    if (latency_objective_us > 0.0) {
        std::snprintf(buf, sizeof buf, ",%s<=%g", qname, latency_objective_us);
        out += buf;
    }
    if (availability_pct > 0.0) {
        std::snprintf(buf, sizeof buf, ",avail>=%g", availability_pct);
        out += buf;
    }
    std::snprintf(buf, sizeof buf, ",fast=%g,slow=%g,fast_burn=%g,slow_burn=%g",
                  fast_window_s, slow_window_s, fast_burn_max, slow_burn_max);
    out += buf;
    return out;
}

[[nodiscard]] Result<SloSpec> parse_slo_spec(std::string_view spec) {
    SloSpec out;
    bool have_objective = false;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t comma = std::min(spec.find(',', pos), spec.size());
        const std::string_view tok = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (tok.empty()) {
            if (comma == spec.size()) break;
            continue;
        }
        const auto bad = [&](const char* why) {
            return Result<SloSpec>(
                StatusCode::kInvalidArgument,
                "parse_slo_spec: " + std::string(why) + " in '" +
                    std::string(tok) + "'");
        };
        const auto num = [&](std::string_view v, double* dst) {
            char* end = nullptr;
            const std::string s(v);
            const double parsed = std::strtod(s.c_str(), &end);
            if (end == s.c_str() || *end != '\0') return false;
            *dst = parsed;
            return true;
        };
        std::size_t le = tok.find("<=");
        std::size_t ge = tok.find(">=");
        if (le != std::string_view::npos) {
            const std::string_view key = tok.substr(0, le);
            double v = 0.0;
            if (!num(tok.substr(le + 2), &v) || v <= 0.0)
                return bad("bad latency objective");
            if (key == "p50") out.latency_quantile = 0.5;
            else if (key == "p90") out.latency_quantile = 0.9;
            else if (key == "p99") out.latency_quantile = 0.99;
            else if (key == "p999") out.latency_quantile = 0.999;
            else return bad("unknown latency quantile (want p50/p90/p99/p999)");
            out.latency_objective_us = v;
            have_objective = true;
        } else if (ge != std::string_view::npos) {
            if (tok.substr(0, ge) != "avail")
                return bad("unknown '>=' objective (want avail)");
            double v = 0.0;
            if (!num(tok.substr(ge + 2), &v) || v <= 0.0 || v > 100.0)
                return bad("availability must be in (0,100]");
            out.availability_pct = v;
            have_objective = true;
        } else {
            const std::size_t eq = tok.find('=');
            if (eq == std::string_view::npos) return bad("missing '='");
            const std::string_view key = tok.substr(0, eq);
            const std::string_view val = tok.substr(eq + 1);
            if (key == "name") {
                if (val.empty()) return bad("empty name");
                out.name = std::string(val);
            } else {
                double v = 0.0;
                if (!num(val, &v) || v <= 0.0) return bad("bad numeric value");
                if (key == "fast") out.fast_window_s = v;
                else if (key == "slow") out.slow_window_s = v;
                else if (key == "fast_burn") out.fast_burn_max = v;
                else if (key == "slow_burn") out.slow_burn_max = v;
                else return bad("unknown key");
            }
        }
        if (comma == spec.size()) break;
    }
    if (!have_objective)
        return Result<SloSpec>(StatusCode::kInvalidArgument,
                               "parse_slo_spec: no objective (give pNN<=US "
                               "and/or avail>=PCT)");
    if (out.fast_window_s > out.slow_window_s)
        return Result<SloSpec>(StatusCode::kInvalidArgument,
                               "parse_slo_spec: fast window wider than slow");
    return out;
}

[[nodiscard]] const char* to_string(SloState s) {
    switch (s) {
        case SloState::kOk: return "ok";
        case SloState::kWarn: return "warn";
        case SloState::kBreach: return "breach";
    }
    return "unknown";
}

SloMonitor::SloMonitor(SloSpec spec)
    : spec_(std::move(spec)),
      total_("slo." + spec_.name + ".total", monitor_window(spec_)),
      errors_("slo." + spec_.name + ".errors", monitor_window(spec_)),
      latency_("slo." + spec_.name + ".latency_us", monitor_window(spec_)) {}

// wifisense-lint: requires(noalloc, noexcept)
void SloMonitor::record(double stream_t, double latency_us, bool ok) {
    total_.add(stream_t, 1);
    // Zero-count adds still advance the errors ring: a clean stream must age
    // old errors out of the windows, not freeze them at the last failure.
    errors_.add(stream_t, ok ? 0 : 1);
    latency_.observe(stream_t, latency_us);
    if (stream_t == stream_t && stream_t > last_t_) last_t_ = stream_t;
}

[[nodiscard]] SloVerdict SloMonitor::evaluate() const {
    SloVerdict v;
    v.requests_fast = total_.sum_last(spec_.fast_window_s);
    v.requests_slow = total_.sum_last(spec_.slow_window_s);
    const std::uint64_t err_fast = errors_.sum_last(spec_.fast_window_s);
    const std::uint64_t err_slow = errors_.sum_last(spec_.slow_window_s);
    if (v.requests_fast > 0)
        v.availability_fast_pct =
            100.0 * static_cast<double>(v.requests_fast - err_fast) /
            static_cast<double>(v.requests_fast);
    if (v.requests_slow > 0)
        v.availability_slow_pct =
            100.0 * static_cast<double>(v.requests_slow - err_slow) /
            static_cast<double>(v.requests_slow);
    v.latency_fast_us =
        latency_.quantile_last(spec_.fast_window_s, spec_.latency_quantile);
    v.latency_slow_us =
        latency_.quantile_last(spec_.slow_window_s, spec_.latency_quantile);

    bool warn = false;
    if (spec_.availability_pct > 0.0) {
        v.fast_burn = burn_rate(err_fast, v.requests_fast, spec_.availability_pct);
        v.slow_burn = burn_rate(err_slow, v.requests_slow, spec_.availability_pct);
        const bool fast_hot = v.fast_burn > spec_.fast_burn_max;
        const bool slow_hot = v.slow_burn > spec_.slow_burn_max;
        v.availability_breach = fast_hot && slow_hot;
        warn = warn || (fast_hot != slow_hot);
    }
    if (spec_.latency_objective_us > 0.0) {
        const bool fast_hot = v.latency_fast_us > spec_.latency_objective_us;
        const bool slow_hot = v.latency_slow_us > spec_.latency_objective_us;
        v.latency_breach = fast_hot && slow_hot;
        warn = warn || (fast_hot != slow_hot);
    }
    if (v.availability_breach || v.latency_breach) {
        v.state = SloState::kBreach;
        if (v.availability_breach)
            flight_record("slo", "availability-breach", last_t_, v.fast_burn,
                          v.slow_burn);
        if (v.latency_breach)
            flight_record("slo", "latency-breach", last_t_, v.latency_fast_us,
                          v.latency_slow_us);
    } else if (warn) {
        v.state = SloState::kWarn;
    }
    return v;
}

void SloMonitor::reset() {
    total_.reset();
    errors_.reset();
    latency_.reset();
    last_t_ = 0.0;
}

SloMonitor& obs_slo(const SloSpec& spec) {
    SloRegistry& r = slo_registry();
    std::lock_guard lock(r.mu);
    auto it = r.monitors.find(spec.name);
    if (it == r.monitors.end())
        it = r.monitors.emplace(spec.name, std::make_unique<SloMonitor>(spec))
                 .first;
    return *it->second;
}

std::string slo_verdicts_to_json() {
    SloRegistry& r = slo_registry();
    std::lock_guard lock(r.mu);
    std::string out = "[";
    bool first = true;
    for (const auto& [name, mon] : r.monitors) {
        const SloVerdict v = mon->evaluate();
        if (!first) out += ',';
        first = false;
        out += "{\"name\":\"" + name + "\",\"spec\":\"" +
               mon->spec().to_spec() + "\",\"state\":\"";
        out += to_string(v.state);
        out += "\",\"availability_breach\":";
        out += v.availability_breach ? "true" : "false";
        out += ",\"latency_breach\":";
        out += v.latency_breach ? "true" : "false";
        out += ",\"fast_burn\":";
        append_double(out, v.fast_burn);
        out += ",\"slow_burn\":";
        append_double(out, v.slow_burn);
        out += ",\"availability_fast_pct\":";
        append_double(out, v.availability_fast_pct);
        out += ",\"availability_slow_pct\":";
        append_double(out, v.availability_slow_pct);
        out += ",\"latency_fast_us\":";
        append_double(out, v.latency_fast_us);
        out += ",\"latency_slow_us\":";
        append_double(out, v.latency_slow_us);
        out += ",\"requests_fast\":" + std::to_string(v.requests_fast);
        out += ",\"requests_slow\":" + std::to_string(v.requests_slow);
        out += '}';
    }
    out += "]";
    return out;
}

std::string format_verdict_table(const SloSpec& spec, const SloVerdict& v) {
    char buf[512];
    std::string out;
    std::snprintf(buf, sizeof buf, "SLO '%s': state=%s\n", spec.name.c_str(),
                  to_string(v.state));
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "  %-10s %9s %8s %10s %8s\n", "window", "requests", "avail%",
                  "p-lat us", "burn");
    out += buf;
    std::snprintf(buf, sizeof buf, "  fast(%gs)%*s %9llu %7.3f%% %10.1f %8.2f\n",
                  spec.fast_window_s, 0, "",
                  static_cast<unsigned long long>(v.requests_fast),
                  v.availability_fast_pct, v.latency_fast_us, v.fast_burn);
    out += buf;
    std::snprintf(buf, sizeof buf, "  slow(%gs)%*s %9llu %7.3f%% %10.1f %8.2f\n",
                  spec.slow_window_s, 0, "",
                  static_cast<unsigned long long>(v.requests_slow),
                  v.availability_slow_pct, v.latency_slow_us, v.slow_burn);
    out += buf;
    if (spec.latency_objective_us > 0.0) {
        std::snprintf(buf, sizeof buf, "  latency objective: p%g <= %g us%s\n",
                      spec.latency_quantile * 100.0, spec.latency_objective_us,
                      v.latency_breach ? "  ** BREACH **" : "");
        out += buf;
    }
    if (spec.availability_pct > 0.0) {
        std::snprintf(buf, sizeof buf,
                      "  availability objective: >= %g%% (burn thresholds "
                      "fast>%g slow>%g)%s\n",
                      spec.availability_pct, spec.fast_burn_max,
                      spec.slow_burn_max,
                      v.availability_breach ? "  ** BREACH **" : "");
        out += buf;
    }
    return out;
}

}  // namespace wifisense::common
