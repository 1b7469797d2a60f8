(* The benchmark program: one workload per process.

     bonsai_bench.exe --workload wan-cold|dc-certified|ft-churn
                      --seed N --seconds S --trace 0|1
                      [--trace-out FILE]
     bonsai_bench.exe --write-reference

   With --trace 0 the result line carries the end-to-end metrics, with
   --trace 1 the per-layer metrics of a separate traced run. The tables
   below are the single list of metric names and units; BENCHMARK.json
   and perfbench/README.md list the same names. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("op_p50_ms", "ms");
    ("op_p90_ms", "ms");
    ("compression_ratio", "x");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("refine.partition_s", "s");
    ("refine.iterations", "count");
    ("refine.splits", "count");
    ("refine.alloc_mw", "Mw");
    ("compile.signatures_s", "s");
    ("compile.signatures_n", "count");
    ("compile.signatures_alloc_mw", "Mw");
    ("prefs.effective_s", "s");
    ("abstraction.make_s", "s");
    ("abstraction.nodes", "count");
    ("abstraction.links", "count");
    ("abstraction.alloc_mw", "Mw");
    ("policy_bdd.universe_s", "s");
    ("ecs.compute_s", "s");
    ("bdd.nodes", "count");
    ("bdd.apply_misses", "count");
    ("bdd.apply_hit_ratio", "share");
    ("bdd.ite_misses", "count");
    ("certify.check_s", "s");
    ("certify.obligations", "count");
    ("dp_bisim.check_s", "s");
    ("dp_bisim.traces", "count");
    ("delta.diff_s", "s");
    ("incr.recompress_s", "s");
    ("incr.reused", "count");
    ("incr.seeded", "count");
    ("incr.scratch", "count");
    ("incr.full_rebuilds", "count");
    ("incr.reuse_ratio", "share");
    ("sig_cache.hits", "count");
    ("sig_cache.misses", "count");
    ("sig_cache.hit_ratio", "share");
    ("dp_diff.run_s", "s");
    ("dp_diff.reused", "count");
    ("dp_diff.recompiled", "count");
    ("lint.run_s", "s");
    ("serve_engine.self_s", "s");
    ("write_p50_ms", "ms");
    ("write_p90_ms", "ms");
    ("write_samples", "count");
    ("review_p50_ms", "ms");
    ("review_p90_ms", "ms");
    ("review_samples", "count");
    ("query_p50_ms", "ms");
    ("query_p90_ms", "ms");
    ("query_samples", "count");
    ("writes.reused_share", "share");
    ("writes.seeded_share", "share");
    ("writes.scratch_share", "share");
    ("writes.full_rebuild_share", "share");
    ("failure_ratio", "share");
    ("trace.untraced_s", "s");
    ("trace.traced_s", "s");
    ("trace.overhead_s", "s");
    ("trace.residual_s", "s");
  ]

let workloads = [ "wan-cold"; "dc-certified"; "ft-churn" ]

let () =
  let workload = ref "" in
  let seed = ref 1 in
  let seconds = ref 10.0 in
  let trace = ref 0 in
  let trace_out = ref "" in
  let write_reference = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measured time");
      ("--trace", Arg.Set_int trace, " 1: traced run with per-layer metrics");
      ("--trace-out", Arg.Set_string trace_out, " Chrome trace file (traced run)");
      ("--write-reference", Arg.Set write_reference, " regenerate the digests");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bonsai_bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !write_reference then begin
    Cold.write_reference Cold.wan;
    Cold.write_reference Cold.datacenter;
    exit 0
  end;
  let traced = !trace = 1 in
  let trace_out = if String.equal !trace_out "" then None else Some !trace_out in
  let correct, attempted, failed, e2e, layers =
    match !workload with
    | "wan-cold" -> Cold.run Cold.wan ~seed:!seed ~seconds:!seconds ~trace:traced ~trace_out
    | "dc-certified" ->
      Cold.run Cold.datacenter ~seed:!seed ~seconds:!seconds ~trace:traced ~trace_out
    | "ft-churn" ->
      Churn.run ~seed:!seed ~seconds:!seconds ~trace:traced ~trace_out
    | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
  in
  let pick table values ~default =
    List.map
      (fun (name, unit_) ->
        match (List.assoc_opt name values, default) with
        | Some v, _ | None, Some v -> Report.m name unit_ v
        | None, None -> failwith ("metric not measured: " ^ name))
      table
  in
  let metrics =
    if traced then pick per_layer layers ~default:(Some 0.0)
    else pick end_to_end e2e ~default:None
  in
  Report.print_metrics metrics;
  Report.print_result ~correct ~attempted ~failed metrics
