// Text rendering of experiment results: the one place that turns
// report::Table / report::Metric / report::Check objects into the
// terminal output the per-figure binaries used to hand-roll with printf.
#pragma once

#include <cstdio>

#include "report/experiment.h"

namespace bgpatoms::report {

/// Renders one experiment: banner, notes, tables, metrics, checks.
void render(const ExperimentResult& result, std::FILE* out);

/// Renders the run footer: per-experiment check/time summary and the
/// planned-campaign totals with the build batch's wall time.
void render_summary(const RunReport& report, std::FILE* out);

}  // namespace bgpatoms::report
