#!/usr/bin/env bash
# Fail if polymorphic comparison spellings reappear in directories that
# were swept to typed equality (lib/bdd, lib/routing, lib/faults,
# lib/repair) or in the refinement kernel's hot loop (refine,
# union-split-find, graph, abstraction), the edge signatures it refines on (compile), its Figure 4
# checker (certify), the concrete solver (solver, solution), the
# destination classes (ecs), the data-plane diff (dp_diff), the
# incremental engine with its signature cache and change model (incr,
# sig_cache, delta), the compression-blocker lint (lint_compress) and
# both front ends (the resident engine serve_engine and the CLI). In the
# kernel files a bare [compare] is flagged too, so that
# [List.sort compare] and the like cannot creep back in.
# Attached to @runtest via the @forbid-polycompare alias in the root dune.
set -u

spelled='Stdlib\.compare|Pervasives\.compare|let compare = compare\b|attr_equal = \( = \)'
bare='(^|[^.[:alnum:]_])compare([^[:alnum:]_]|$)'
kernel="lib/config/compile.ml lib/core/refine.ml lib/util/union_split_find.ml lib/topology/graph.ml lib/core/abstraction.ml lib/simulate/solver.ml lib/simulate/solution.ml lib/config/ecs.ml lib/certify/certify.ml lib/dataplane/dp_diff.ml lib/incr/incr.ml lib/incr/sig_cache.ml lib/incr/delta.ml lib/analysis/lint_compress.ml lib/serve/serve_engine.ml bin/bonsai_cli.ml"

bad=0
for f in lib/bdd/*.ml lib/routing/*.ml lib/faults/*.ml lib/repair/*.ml $kernel; do
  [ -e "$f" ] || continue
  if grep -nE "$spelled" "$f"; then
    echo "forbid-polycompare: polymorphic compare in $f (use typed equality)" >&2
    bad=1
  fi
done
for f in $kernel; do
  if grep -nE "$bare" "$f"; then
    echo "forbid-polycompare: bare compare in $f (use Int.compare or a typed compare)" >&2
    bad=1
  fi
done
exit $bad
