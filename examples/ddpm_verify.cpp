// ddpm_verify — static design-space verifier (docs/VERIFICATION.md).
//
// Proves, without simulating a single cycle:
//   --cdg          channel-dependency deadlock verdicts for every
//                  Topology x Router factory combo,
//   --invariant    the telescoping marking identity V = D - S (D ^ S on
//                  hypercubes) at every route prefix, exhaustively on
//                  small radices and sampled above,
//   --injectivity  that no two sources share a field value for a fixed
//                  destination,
//   --width        the paper's Tables 1-3 bit budgets against the real
//                  DdpmCodec layout and factory limits.
//   --model        bounded exhaustive model checking of the wormhole
//                  VC/credit protocol on the small-configuration grid,
//                  with witness replay on conviction.
//
// --all (the default) runs everything. --json FILE writes the verdict
// table the `verify` CI job diffs against tools/ddpm_verify_baseline.json;
// --markdown prints the tables EXPERIMENTS.md embeds; --witness-dir DIR
// saves each convicted model configuration's replayable counterexample as
// DIR/witness_N.json (the artifact the `verify-model` CI job uploads on
// failure). Exit status is the number of failing verdicts (0 = the design
// space is certified).
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "verify/design_space.hpp"
#include "verify/model/suite.hpp"
#include "verify/width_cert.hpp"

int main(int argc, char** argv) {
  bool want_all = false, want_cdg = false, want_invariant = false,
       want_injectivity = false, want_width = false, want_model = false,
       markdown = false;
  std::string json_path;
  std::string witness_dir;
  ddpm::core::Cli cli("ddpm_verify — static design-space verifier");
  cli.toggle("--all", want_all, "run every suite (the default)");
  cli.toggle("--cdg", want_cdg, "channel-dependency deadlock verdicts");
  cli.toggle("--invariant", want_invariant, "marking identity V = D - S");
  cli.toggle("--injectivity", want_injectivity,
             "no two sources share a field value");
  cli.toggle("--width", want_width, "Tables 1-3 field-width certification");
  cli.toggle("--model", want_model, "bounded model checking of the wormhole");
  cli.text("--json", json_path, "FILE", "write the verdict table as JSON");
  cli.toggle("--markdown", markdown, "print the tables EXPERIMENTS.md embeds");
  cli.text("--witness-dir", witness_dir, "DIR",
           "save each convicted model configuration's witness here");
  try {
    if (!cli.parse(argc, argv, std::cout)) return 0;
  } catch (const std::invalid_argument& err) {
    std::cerr << "ddpm_verify: " << err.what() << "\n";
    return 2;
  }
  if (want_all || (!want_cdg && !want_invariant && !want_injectivity &&
                   !want_width && !want_model)) {
    want_cdg = want_invariant = want_injectivity = want_width = want_model =
        true;
  }

  ddpm::verify::Report report;
  if (want_cdg) report.cdg = ddpm::verify::run_cdg_suite();
  if (want_invariant) report.invariant = ddpm::verify::run_invariant_suite();
  if (want_injectivity) {
    report.injectivity = ddpm::verify::run_injectivity_suite();
  }
  if (want_width) report.width = ddpm::verify::certify_widths();
  std::vector<ddpm::verify::model::ModelWitness> witnesses;
  if (want_model) report.model = ddpm::verify::model::run_model_suite(&witnesses);
  for (std::size_t i = 0; i < witnesses.size(); ++i) {
    if (witness_dir.empty()) break;
    const std::string path =
        witness_dir + "/witness_" + std::to_string(i) + ".json";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "ddpm_verify: cannot write " << path << "\n";
      return 2;
    }
    out << witnesses[i].to_json();
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "ddpm_verify: cannot write " << json_path << "\n";
      return 2;
    }
    out << report.to_json();
  }
  if (markdown) {
    std::cout << report.to_markdown();
  } else {
    std::cout << "ddpm_verify: " << report.rows() << " verdicts, "
              << report.failures() << " failing\n";
    for (const auto& v : report.cdg) {
      if (v.pass) continue;
      std::cout << "  FAIL cdg " << v.topology << " x " << v.router << ": "
                << v.note << "\n";
      for (const auto& name : v.cycle) std::cout << "       " << name << "\n";
    }
    for (const auto& v : report.invariant) {
      if (!v.pass) {
        std::cout << "  FAIL invariant " << v.topology << ": " << v.note
                  << "\n";
      }
    }
    for (const auto& v : report.injectivity) {
      if (!v.pass) {
        std::cout << "  FAIL injectivity " << v.topology << ": " << v.note
                  << "\n";
      }
    }
    for (const auto& v : report.width) {
      if (!v.pass) {
        std::cout << "  FAIL width " << v.check << ": " << v.note << "\n";
      }
    }
    for (const auto& v : report.model) {
      if (!v.pass) {
        std::cout << "  FAIL model " << v.topology << " x " << v.router
                  << " vcs=" << v.vcs << " depth=" << v.depth << ": "
                  << (v.violated.empty() ? "incomplete" : v.violated)
                  << (v.note.empty() ? "" : " — " + v.note) << "\n";
      }
    }
  }
  return report.failures() == 0 ? 0 : 1;
}
