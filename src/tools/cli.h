/// \file cli.h
/// \brief Command-line front end for the library (the `certfix` tool).
///
/// Subcommands (the input schema R is taken to equal the master schema,
/// read from the master CSV header; all attributes are strings):
///
///   certfix mine    --master M.csv [--max-lhs N] [--no-conditional]
///       Mine editing rules from master data; print them in the rule DSL.
///
///   certfix analyze --master M.csv --rules R.rules
///       Print rule diagnostics: dependency graph (dot), forced
///       attributes, CompCRegion vs GRegion attribute lists.
///
///   certfix check   --master M.csv --rules R.rules --region a,b,c
///       Test whether the attribute list admits a certain region
///       (master-anchored tableau construction + certainty checks).
///
///   certfix repair  --master M.csv --rules R.rules --input D.csv
///                   --trusted a,b [--output OUT.csv] [--threads N]
///       Batch-repair D.csv trusting the listed attributes of every row;
///       write the repaired relation and print statistics. --threads N
///       deals the rows round-robin to N shards repaired in parallel
///       (0 = all hardware threads; output is identical at any thread
///       count).
///
/// Each subcommand accepts exactly the flags it reads: any other flag is
/// a usage error (exit 1, "unknown flag --X for <command>"). The usage
/// text printed on error lists every subcommand and its flags.
///
/// The logic is stream-injected for testability; examples/certfix_cli.cpp
/// wraps it in main().

#ifndef CERTFIX_TOOLS_CLI_H_
#define CERTFIX_TOOLS_CLI_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace certfix {

/// Runs the tool; returns a process exit code (0 success, 1 user error,
/// 2 data/analysis failure).
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

}  // namespace certfix

#endif  // CERTFIX_TOOLS_CLI_H_
