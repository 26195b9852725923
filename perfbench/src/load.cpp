#include "load.hpp"

#include "checker/witness.hpp"
#include "checker/witness_verifier.hpp"
#include "common/json.hpp"
#include "common/types.hpp"
#include "litmus/canonical.hpp"
#include "litmus/parser.hpp"
#include "models/registry.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "solve/portfolio.hpp"

namespace perfbench {

namespace json = ssm::common::json;
namespace service = ssm::service;

namespace {

constexpr std::size_t kMaxErrors = 8;

bool definite(const std::string& v) {
  return v == "allowed" || v == "forbidden";
}

void note_error(std::vector<std::string>& errors, std::string msg) {
  if (errors.size() < kMaxErrors) errors.push_back(std::move(msg));
}

/// End of the JSON object starting at `start` (which must be '{'), or npos.
std::size_t object_end(const std::string& s, std::size_t start) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = start; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}' && --depth == 0) {
      return i + 1;
    }
  }
  return std::string::npos;
}

/// The raw bytes of every `"witness": {...}` member, in order.
std::vector<std::string> raw_witnesses(const std::string& line) {
  static constexpr char kKey[] = "\"witness\": ";
  std::vector<std::string> out;
  std::size_t pos = 0;
  while ((pos = line.find(kKey, pos)) != std::string::npos) {
    const std::size_t start = pos + sizeof kKey - 1;
    const std::size_t end = object_end(line, start);
    if (end == std::string::npos) break;
    out.push_back(line.substr(start, end - start));
    pos = end;
  }
  return out;
}

/// Hash of the results array: responses that differ only in `meta` are
/// verified once.
std::uint64_t results_hash(const std::string& line) {
  const auto from = line.find("\"results\": [");
  const auto to = line.rfind("], \"meta\"");
  std::string_view view(line);
  if (from != std::string::npos && to != std::string::npos && to > from) {
    view = view.substr(from, to - from);
  }
  return std::hash<std::string_view>{}(view);
}

std::size_t count_of(const std::string& s, std::string_view needle) {
  std::size_t n = 0;
  for (auto p = s.find(needle); p != std::string::npos;
       p = s.find(needle, p + needle.size())) {
    ++n;
  }
  return n;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

Frame make_frame(const std::vector<Program>& progs, std::vector<Elem> elems,
                 std::uint64_t race_budget) {
  Frame f;
  const bool batch = elems.size() > 1;
  if (batch) f.text = "[";
  for (std::size_t i = 0; i < elems.size(); ++i) {
    if (i != 0) f.text += ", ";
    const Elem& e = elems[i];
    f.text += check_request(e.id, progs.at(e.prog).text, e.race ? "race" : "",
                            e.race ? race_budget : 0);
  }
  if (batch) f.text += "]";
  f.text += '\n';
  f.elems = std::move(elems);
  return f;
}

// ---------------------------------------------------------------- Replay

Replay::Replay()
    : models_(ssm::models::model_names()),
      cache_(service::VerdictCache::Options{}) {
  totals_.model_check_ns.assign(models_.size(), 0.0);
}

void Replay::warm(const Frame& frame) {
  std::vector<Span> scratch;
  scratch.push_back(Span{});
  (void)run(frame, scratch, 0, 0);
}

std::vector<std::vector<std::string>> Replay::run(const Frame& frame,
                                                  std::vector<Span>& spans,
                                                  std::int32_t root,
                                                  std::uint64_t request) {
  thread_local std::vector<ssm::models::ModelPtr> models;
  if (models.empty()) {
    for (const std::string& name : models_) {
      models.push_back(ssm::models::make_model(name));
    }
  }
  ReplayTotals local;
  local.model_check_ns.assign(models_.size(), 0.0);
  const auto timed = [&](const char* name, std::int32_t detail, auto&& fn) {
    Span s;
    s.name = name;
    s.parent = root;
    s.request = request;
    s.detail = detail;
    s.start_ns = now_ns();
    fn();
    s.end_ns = now_ns();
    spans.push_back(s);
    return static_cast<double>(s.end_ns - s.start_ns);
  };

  std::string_view text(frame.text);
  if (!text.empty() && text.back() == '\n') text.remove_suffix(1);
  std::vector<service::FrameItem> items;
  timed("protocol.parse_frame", -1, [&] { items = service::parse_frame(text); });
  std::vector<std::vector<std::string>> out(items.size());
  const std::size_t m_count = models_.size();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const service::FrameItem& item = items[i];
    if (!item.ok || item.request.op != service::Request::Op::Check) {
      throw ssm::InvalidInput("replay: frame element is not a check");
    }
    const service::CheckRequest& req = item.request.check;
    ++local.requests;
    ssm::litmus::LitmusTest test;
    timed("litmus.parse_test", -1,
          [&] { test = ssm::litmus::parse_test(req.program); });
    ssm::litmus::Canonical canon;
    timed("litmus.canonicalize", -1,
          [&] { canon = ssm::litmus::canonicalize(test); });
    ++local.canonicalizations;
    if (canon.is_identity()) ++local.identities;

    std::vector<service::CacheKey> keys(m_count);
    std::vector<service::VerdictCache::BatchCell> cells(m_count);
    for (std::size_t m = 0; m < m_count; ++m) {
      keys[m].program = canon.key;
      keys[m].model = models_[m];
      keys[m].max_nodes = req.budget.max_nodes;
      keys[m].timeout_ms = req.budget.timeout_ms;
      keys[m].backend = ssm::checker::to_string(req.backend);
      cells[m].key = &keys[m];
    }
    timed("cache.get_many", -1, [&] { cache_.get_many(cells); });

    const bool plain = req.backend == ssm::checker::Backend::Search &&
                       req.budget.max_nodes == 0 && req.budget.timeout_ms == 0;
    std::vector<service::CachedVerdict> results(m_count);
    std::vector<service::VerdictCache::BatchCell> puts;
    for (std::size_t m = 0; m < m_count; ++m) {
      if (cells[m].result) {
        results[m] = std::move(*cells[m].result);
        continue;
      }
      const auto detail = static_cast<std::int32_t>(m);
      ssm::checker::Verdict v;
      if (plain) {
        local.model_check_ns[m] += timed("models.check", detail, [&] {
          v = models[m]->check(canon.test.hist);
        });
      } else {
        timed("solve.portfolio", detail, [&] {
          v = ssm::checker::Portfolio::check(canon.test.hist, models_[m],
                                             req.backend, req.budget);
        });
      }
      service::CachedVerdict& cv = results[m];
      if (v.inconclusive) {
        cv.status = service::CachedVerdict::Status::Inconclusive;
        cv.note = v.note;
      } else if (v.allowed) {
        cv.status = service::CachedVerdict::Status::Allowed;
        ssm::checker::Witness w;
        timed("checker.witness", detail, [&] {
          w = ssm::checker::witness_from_verdict(canon.test.hist, models_[m],
                                                 v);
          cv.witness_json = ssm::checker::to_json(w);
        });
        std::optional<std::string> err;
        timed("checker.verify", detail,
              [&] { err = ssm::checker::verify_witness(canon.test.hist, w); });
        if (err) throw ssm::InvalidInput("replay: certificate rejected: " + *err);
      } else {
        cv.status = service::CachedVerdict::Status::Forbidden;
      }
      service::VerdictCache::BatchCell put;
      put.key = &keys[m];
      put.value = &results[m];
      puts.push_back(put);
    }
    if (!puts.empty()) {
      timed("cache.put_many", -1, [&] { cache_.put_many(puts); });
    }

    service::CheckResponse resp;
    resp.id = item.request.id;
    for (std::size_t m = 0; m < m_count; ++m) {
      service::ModelResult r;
      r.model = models_[m];
      r.verdict = service::to_string(results[m].status);
      r.source = cells[m].result ? "cache" : "solved";
      r.witness_json = results[m].witness_json;
      r.note = results[m].note;
      if (!canon.is_identity() && !r.witness_json.empty()) {
        const auto detail = static_cast<std::int32_t>(m);
        ssm::checker::Witness remapped;
        timed("litmus.remap", detail, [&] {
          remapped = ssm::litmus::remap_witness_from_canonical(
              ssm::checker::witness_from_json(r.witness_json), canon);
          r.witness_json = ssm::checker::to_json(remapped);
        });
        std::optional<std::string> err;
        timed("checker.verify", detail,
              [&] { err = ssm::checker::verify_witness(test.hist, remapped); });
        if (err) throw ssm::InvalidInput("replay: remapped witness rejected");
      }
      out[i].push_back(r.verdict);
      resp.results.push_back(std::move(r));
    }
    std::string line;
    timed("protocol.serialize", -1,
          [&] { line = service::serialize_check_response(resp); });
  }
  std::lock_guard<std::mutex> lock(mu_);
  totals_.requests += local.requests;
  totals_.canonicalizations += local.canonicalizations;
  totals_.identities += local.identities;
  for (std::size_t m = 0; m < m_count; ++m) {
    totals_.model_check_ns[m] += local.model_check_ns[m];
  }
  return out;
}

ReplayTotals Replay::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

// ----------------------------------------------------------- VerdictTable

bool VerdictTable::record(const std::string& canon_key,
                          const std::string& model,
                          const std::string& verdict) {
  if (!definite(verdict)) return true;
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = table_.try_emplace({canon_key, model}, verdict);
  return inserted || it->second == verdict;
}

// -------------------------------------------------------------- LoadState

LoadState::LoadState(const std::vector<Program>& progs, std::string socket)
    : progs_(progs), socket_(std::move(socket)), class_of_(progs.size()) {
  std::map<std::string, std::uint32_t> classes;
  for (std::size_t i = 0; i < progs.size(); ++i) {
    const auto [it, inserted] = classes.try_emplace(
        progs[i].canon_key, static_cast<std::uint32_t>(classes.size()));
    class_of_[i] = it->second;
  }
  answered_ = std::vector<std::atomic<bool>>(2 * classes.size());
}

void LoadState::keep(std::uint32_t prog, bool race, const std::string& line) {
  const std::uint64_t key =
      results_hash(line) ^ (std::uint64_t{prog} * 0x9e3779b97f4a7c15ULL) ^
      (race ? 0x5bd1e995ULL : 0);
  std::lock_guard<std::mutex> lock(store_mu_);
  if (stored_keys_.insert(key).second) stored_.push_back({prog, line});
}

PhaseResult LoadState::run(const PhaseSpec& spec) {
  const std::vector<Frame>& frames = *spec.frames;
  const std::size_t models = ssm::models::model_names().size();
  PhaseResult total;
  std::mutex mu;
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now();

  const auto conn_main = [&] {
    PhaseResult local;
    std::optional<service::Client> client;
    try {
      client.emplace(service::Client::connect_unix(socket_));
    } catch (const std::exception& e) {
      ++local.failed;
      note_error(local.errors, std::string("connect: ") + e.what());
    }
    while (client) {
      const std::size_t k = next.fetch_add(1);
      if (spec.count != 0 && k >= spec.count) break;
      if (spec.deadline && Clock::now() >= *spec.deadline) break;
      std::size_t idx = spec.first + k;
      if (spec.cyclic) {
        idx %= frames.size();
      } else if (idx >= frames.size()) {
        break;
      }
      const Frame& f = frames[idx];
      std::vector<bool> seen(f.elems.size());
      for (std::size_t e = 0; e < f.elems.size(); ++e) {
        const Elem& el = f.elems[e];
        seen[e] = answered_[2 * class_of_[el.prog] + (el.race ? 1 : 0)].load(
            std::memory_order_relaxed);
      }
      std::int32_t root = -1;
      if (spec.replay != nullptr) {
        root = static_cast<std::int32_t>(local.spans.size());
        Span s;
        s.name = "client.call";
        s.request = k;
        local.spans.push_back(s);
      }
      const std::int64_t start = now_ns();
      std::int64_t end = 0;
      std::vector<std::string> lines;
      try {
        client->send_frame(f.text);
        std::vector<std::vector<std::string>> replayed;
        if (spec.replay != nullptr) {
          replayed = spec.replay->run(f, local.spans, root, k);
        }
        // Latency ends at the last response; checking happens after.
        while (lines.size() < f.elems.size()) {
          auto line = client->read_frame();
          if (!line) throw ssm::InvalidInput("server closed the connection");
          lines.push_back(std::move(*line));
        }
        end = now_ns();
        for (std::size_t e = 0; e < f.elems.size(); ++e) {
          const Elem& el = f.elems[e];
          const std::string& line = lines[e];
          ++local.elems;
          const std::string prefix = "{\"id\": \"" + el.id + "\", \"ok\": true";
          if (line.compare(0, prefix.size(), prefix) != 0) {
            ++local.failed;
            note_error(local.errors, "bad or out-of-order response to " +
                                         el.id + ": " + line.substr(0, 200));
            continue;
          }
          // verify_stored checks later that every response has all models.
          local.cells += models;
          local.inconclusive += count_of(line, "\"verdict\": \"inconclusive\"");
          keep(el.prog, el.race, line);
          if (spec.responses != nullptr) {
            std::lock_guard<std::mutex> lock(mu);
            spec.responses->push_back(line);
          }
          if (spec.replay != nullptr) {
            const json::Value doc = json::parse(line);
            const auto& results = doc.at("results").items();
            bool mismatch = results.size() != replayed.at(e).size();
            for (std::size_t m = 0; !mismatch && m < results.size(); ++m) {
              const std::string& got = results[m].at("verdict").as_string();
              const std::string& want = replayed[e][m];
              if (definite(got) && definite(want) && got != want) mismatch = true;
              if (results[m].at("source").as_string() != "cache") {
                ++local.misses;
                if (seen[e]) ++local.resolved_misses;
              }
            }
            if (mismatch) {
              ++local.failed;
              note_error(local.errors, "replay verdicts differ for " + el.id);
            }
          }
        }
      } catch (const std::exception& e) {
        const std::size_t lost = f.elems.size() - lines.size();
        local.failed += lost;
        local.elems += lost;
        note_error(local.errors, std::string("connection: ") + e.what());
        client.reset();
      }
      if (root >= 0) {
        local.spans[static_cast<std::size_t>(root)].start_ns = start;
        local.spans[static_cast<std::size_t>(root)].end_ns = end != 0 ? end : now_ns();
      }
      if (!client) break;
      local.latency_us.push_back(static_cast<double>(end - start) / 1e3);
      ++local.frames;
      for (const Elem& el : f.elems) {
        answered_[2 * class_of_[el.prog] + (el.race ? 1 : 0)].store(
            true, std::memory_order_relaxed);
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    total.latency_us.insert(total.latency_us.end(), local.latency_us.begin(),
                            local.latency_us.end());
    total.frames += local.frames;
    total.elems += local.elems;
    total.failed += local.failed;
    total.cells += local.cells;
    total.inconclusive += local.inconclusive;
    total.misses += local.misses;
    total.resolved_misses += local.resolved_misses;
    // Re-base span parents onto the merged vector.
    const auto base = static_cast<std::int32_t>(total.spans.size());
    for (Span s : local.spans) {
      if (s.parent >= 0) s.parent += base;
      total.spans.push_back(s);
    }
    for (auto& e : local.errors) note_error(total.errors, std::move(e));
  };

  conn_main();
  total.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return total;
}

std::uint64_t LoadState::verify_stored(VerdictTable& table,
                                       std::vector<std::string>& errors,
                                       std::uint64_t& witnesses_checked) {
  static const std::vector<std::string> names = ssm::models::model_names();
  std::uint64_t failures = 0;
  bool response_failed = false;
  const auto fail = [&](std::string msg) {
    response_failed = true;
    note_error(errors, std::move(msg));
  };
  for (const Stored& s : stored_) {
    if (response_failed) ++failures;
    response_failed = false;
    const Program& prog = progs_.at(s.prog);
    try {
      const json::Value doc = json::parse(s.line);
      const auto& results = doc.at("results").items();
      if (results.size() != names.size()) {
        fail("response for " + prog.test.name + " lacks model results");
        continue;
      }
      const std::vector<std::string> raws = raw_witnesses(s.line);
      std::size_t next_raw = 0;
      for (std::size_t m = 0; m < results.size(); ++m) {
        const json::Value& r = results[m];
        const std::string& model = r.at("model").as_string();
        const std::string& verdict = r.at("verdict").as_string();
        if (model != names[m]) {
          fail("model results out of order for " + prog.test.name);
          break;
        }
        if (!definite(verdict) && verdict != "inconclusive") {
          fail("unknown verdict " + verdict);
          continue;
        }
        if (!table.record(prog.canon_key, model, verdict)) {
          fail("conflicting definite verdicts for " + prog.test.name + " " +
               model);
        }
        if (r.find("witness") == nullptr) {
          if (verdict == "allowed") fail("allowed without witness: " + model);
          continue;
        }
        if (next_raw >= raws.size()) {
          fail("witness bytes missing for " + model);
          continue;
        }
        const std::string& raw = raws[next_raw++];
        if (service::hex16(service::fnv1a64(raw)) !=
            r.at("witness_fnv1a").as_string()) {
          fail("witness digest mismatch for " + prog.test.name + " " + model);
          continue;
        }
        const auto w = ssm::checker::witness_from_json(raw);
        ++witnesses_checked;
        if (const auto err = ssm::checker::verify_witness(prog.test.hist, w)) {
          fail("witness rejected for " + prog.test.name + " " + model + ": " +
               *err);
        }
      }
    } catch (const std::exception& e) {
      fail(std::string("unparsable response: ") + e.what());
    }
  }
  if (response_failed) ++failures;
  return failures;
}

}  // namespace perfbench
