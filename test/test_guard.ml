(* Tests for the resource-governance layer (lib/guard): budget mechanics,
   budget exhaustion in each governed hot loop (Bdd, Solver, Refine,
   Fault_engine), graceful degradation in Bonsai_api, and the QCheck
   crash-proofing harness — no input may escape the parse → compile →
   compress → solve pipeline as anything but a typed error.

   The QCheck iteration count defaults to a small CI-friendly number and
   scales with the FUZZ_COUNT environment variable (e.g.
   `FUZZ_COUNT=500 dune exec test/test_guard.exe` for a local soak). *)

let fuzz_count =
  match Option.bind (Sys.getenv_opt "FUZZ_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 60

let one_tick () = Budget.create ~max_ticks:1 ()

let bare_net graph =
  {
    Device.graph;
    routers =
      Array.init (Graph.n_nodes graph) (fun v ->
          Device.default_router (Graph.name graph v));
  }

(* --- Budget mechanics ------------------------------------------------- *)

let test_infinite_never_exhausts () =
  for _ = 1 to 10_000 do
    Budget.tick Budget.infinite ~phase:"test";
    Budget.check Budget.infinite ~phase:"test"
  done;
  Alcotest.(check bool) "is_infinite" true (Budget.is_infinite Budget.infinite);
  Alcotest.(check bool) "not exhausted" false
    (Budget.exhausted Budget.infinite)

let test_tick_limit () =
  let b = Budget.create ~max_ticks:3 () in
  Budget.tick b ~phase:"a";
  Budget.tick b ~phase:"a";
  Budget.tick b ~phase:"a";
  match Budget.tick b ~phase:"b" with
  | () -> Alcotest.fail "4th tick must exhaust a 3-tick budget"
  | exception Budget.Exhausted info ->
    Alcotest.(check string) "phase of the fatal tick" "b" info.Budget.phase;
    Alcotest.(check int) "ticks consumed" 4 info.Budget.ticks;
    Alcotest.(check bool) "exhausted poll" true (Budget.exhausted b)

let test_deadline () =
  let b = Budget.create ~deadline_s:0.0 () in
  (* [check] always consults the clock, so an already-passed deadline is
     caught on the first call *)
  match Budget.check b ~phase:"t" with
  | () -> Alcotest.fail "expired deadline must exhaust"
  | exception Budget.Exhausted info ->
    Alcotest.(check bool) "elapsed recorded" true (info.Budget.elapsed_s >= 0.0)

let test_cancel () =
  let b = Budget.create () in
  Budget.tick b ~phase:"t";
  Alcotest.(check bool) "not yet cancelled" false (Budget.cancelled b);
  Budget.cancel b;
  match Budget.tick b ~phase:"t" with
  | () -> Alcotest.fail "cancelled budget must exhaust"
  | exception Budget.Exhausted _ -> ()

let test_with_note () =
  let b = one_tick () in
  let info = Budget.info b ~phase:"p" () in
  Alcotest.(check (option string)) "no note" None info.Budget.note;
  let info = Budget.with_note info "partition had 3/9 classes" in
  Alcotest.(check (option string))
    "note replaced"
    (Some "partition had 3/9 classes")
    info.Budget.note

(* --- Bdd: apply/ite recursion is governed ----------------------------- *)

(* enough conjunctions of fresh variables to need many uncached recursion
   steps *)
let build_chain man =
  let acc = ref (Bdd.var man 0) in
  for i = 1 to 40 do
    acc := Bdd.and_ man !acc (Bdd.var man i)
  done;
  !acc

let test_bdd_budget_exhausts () =
  let man = Bdd.man () in
  Bdd.set_budget man (one_tick ());
  match build_chain man with
  | _ -> Alcotest.fail "1-tick budget must stop the BDD build"
  | exception Budget.Exhausted info ->
    Alcotest.(check string) "phase" "bdd" info.Budget.phase

let test_bdd_infinite_unchanged () =
  let man = Bdd.man () in
  let reference = build_chain man in
  let man' = Bdd.man () in
  Bdd.set_budget man' Budget.infinite;
  let budgeted = build_chain man' in
  (* same function: evaluates true exactly on the all-ones assignment *)
  Alcotest.(check bool) "sat under all-ones" true
    (Bdd.eval budgeted (fun _ -> true));
  Alcotest.(check bool) "unsat when var 17 is false" false
    (Bdd.eval budgeted (fun i -> i <> 17));
  Alcotest.(check bool) "reference agrees" true
    (Bdd.eval reference (fun _ -> true))

let test_bdd_node_cap () =
  let man = Bdd.man () in
  Bdd.set_node_cap man (Some 4);
  match build_chain man with
  | _ -> Alcotest.fail "a 4-node cap must stop a 41-variable chain"
  | exception Budget.Exhausted info ->
    Alcotest.(check bool) "note names the cap" true
      (match info.Budget.note with Some _ -> true | None -> false)

(* --- Solver: the step loop is governed -------------------------------- *)

let ring10 = Generators.ring ~n:10

let test_solver_budget_exhausts () =
  match Solver.solve ~budget:(one_tick ()) (Rip.make ring10 ~dest:0) with
  | Ok _ -> Alcotest.fail "1 tick cannot solve a 10-ring"
  | Error (`Diverged _) ->
    Alcotest.fail "budget exhaustion must not be classified as divergence"
  | Error (`Budget (info, partial)) ->
    Alcotest.(check string) "phase" "solve" info.Budget.phase;
    (* the partial labeling is still a usable (unstable) solution *)
    Alcotest.(check int) "partial solution covers the graph" 10
      (Graph.n_nodes partial.Solution.srp.Srp.graph)

let test_solver_infinite_unchanged () =
  let solve b =
    match Solver.solve ?budget:b (Rip.make ring10 ~dest:0) with
    | Ok (s, stats) -> (s, stats.Solver.steps)
    | Error _ -> Alcotest.fail "a 10-ring must stabilize"
  in
  let s_plain, steps_plain = solve None in
  let s_inf, steps_inf = solve (Some Budget.infinite) in
  Alcotest.(check int) "same step count" steps_plain steps_inf;
  (* RIP labels are plain ints: structural equality is meaningful *)
  Alcotest.(check bool) "same labeling" true
    (s_plain.Solution.labels = s_inf.Solution.labels)

(* --- Refine: the worklist is governed --------------------------------- *)

let test_refine_budget_exhausts () =
  let net = bare_net ring10 in
  match
    Refine.find_partition ~budget:(one_tick ()) net ~dest:0
      ~signature:(fun _ _ -> 0)
      ~prefs:(fun _ -> [])
  with
  | _ -> Alcotest.fail "1 tick cannot refine a 10-ring"
  | exception Budget.Exhausted info ->
    Alcotest.(check string) "phase" "refine" info.Budget.phase;
    Alcotest.(check bool) "note records partition progress" true
      (match info.Budget.note with
      | Some n -> Astring_contains.contains n "classes"
      | None -> false)

let test_refine_infinite_unchanged () =
  let net = bare_net ring10 in
  let run b =
    let partition, stats =
      Refine.find_partition ?budget:b net ~dest:0
        ~signature:(fun _ _ -> 0)
        ~prefs:(fun _ -> [])
    in
    (Union_split_find.num_classes partition, stats.Refine.iterations)
  in
  Alcotest.(check (pair int int))
    "identical partition and iteration count" (run None)
    (run (Some Budget.infinite))

(* --- Fault_engine: surveys truncate, never raise ---------------------- *)

let test_survey_truncates () =
  let srp = Rip.make ring10 ~dest:0 in
  let plan = Fault_engine.plan ~k:1 ring10 in
  let full = Fault_engine.survey srp plan in
  Alcotest.(check int) "unbudgeted survey skips nothing" 0
    full.Fault_engine.n_skipped;
  let b = Budget.create ~max_ticks:25 () in
  let truncated = Fault_engine.survey ~budget:b srp plan in
  Alcotest.(check bool) "budgeted survey skips scenarios" true
    (truncated.Fault_engine.n_skipped > 0);
  Alcotest.(check int) "outcomes + skipped = planned"
    (List.length plan.Fault_engine.scenarios)
    (List.length truncated.Fault_engine.outcomes
    + truncated.Fault_engine.n_skipped)

(* --- Bonsai_api: typed errors and graceful degradation ---------------- *)

let test_compress_ec_budget_error () =
  let net = Synthesis.random_network ~n:10 ~seed:7 in
  let ec = List.hd (Ecs.compute net) in
  match Bonsai_api.compress_ec ~budget:(one_tick ()) net ec with
  | Ok _ -> Alcotest.fail "1 tick cannot compress"
  | Error (Bonsai_error.Budget_exceeded _) -> ()
  | Error e ->
    Alcotest.failf "expected Budget_exceeded, got %a" Bonsai_error.pp e

let test_compress_degrades_to_identity () =
  let net = Synthesis.random_network ~n:10 ~seed:7 in
  let s =
    Bonsai_api.compress_exn ~budget:(Budget.create ~max_ticks:1 ()) net
  in
  (match s.Bonsai_api.degradation with
  | None -> Alcotest.fail "a 1-tick budget must degrade"
  | Some d ->
    Alcotest.(check int) "no class completed" 0 d.Bonsai_api.deg_completed;
    Alcotest.(check int) "all classes attempted" d.Bonsai_api.deg_total
      (List.length s.Bonsai_api.results));
  List.iter
    (fun r ->
      Alcotest.(check bool) "flagged degraded" true r.Bonsai_api.degraded;
      let t = r.Bonsai_api.abstraction in
      (* the identity abstraction: abstract network = concrete network *)
      Alcotest.(check int) "identity node count"
        (Graph.n_nodes net.Device.graph)
        (Graph.n_nodes t.Abstraction.abs_graph))
    s.Bonsai_api.results

let test_degraded_abstraction_is_sound () =
  let net = Synthesis.random_network ~n:8 ~seed:3 in
  let s =
    Bonsai_api.compress_exn ~budget:(Budget.create ~max_ticks:1 ()) net
  in
  let r = List.hd s.Bonsai_api.results in
  Alcotest.(check bool) "degraded" true r.Bonsai_api.degraded;
  let ec = r.Bonsai_api.ec in
  let sol =
    Solver.solve_exn
      (Compile.bgp_srp net ~dest:(Ecs.single_origin ec)
         ~dest_prefix:ec.Ecs.ec_prefix)
  in
  let outcome, _ = Equivalence.check Compile.Bgp r.Bonsai_api.abstraction sol in
  Alcotest.(check bool) "identity fallback is CP-equivalent" true
    outcome.Equivalence.ok

let test_error_exit_codes_distinct () =
  let open Bonsai_error in
  let codes =
    List.map exit_code
      [
        Parse_error { diagnostics = [] };
        Compile_error "";
        Budget_exceeded
          { Budget.phase = "x"; ticks = 0; elapsed_s = 0.0; note = None };
        Divergence "";
        Soundness_break "";
        Internal "";
      ]
  in
  Alcotest.(check int) "codes are pairwise distinct"
    (List.length codes)
    (List.length (List.sort_uniq Int.compare codes));
  Alcotest.(check bool) "none collides with success or cmdliner" true
    (List.for_all (fun c -> c <> 0 && c <> 1 && c < 120) codes)

let test_protect_catches () =
  (match Bonsai_error.protect (fun () -> raise Exit) with
  | Error (Bonsai_error.Internal _) -> ()
  | _ -> Alcotest.fail "unknown exceptions become Internal");
  match
    Bonsai_error.protect (fun () ->
        Budget.tick (Budget.create ~max_ticks:0 ()) ~phase:"p")
  with
  | Error (Bonsai_error.Budget_exceeded _) -> ()
  | _ -> Alcotest.fail "Exhausted becomes Budget_exceeded"

(* --- crash-proofing: the fuzz suites ---------------------------------- *)

(* Random bytes, biased toward config-looking shards so the parser gets
   past the first token reasonably often. *)
let garbage_gen =
  QCheck.Gen.(
    frequency
      [
        (2, string_size ~gen:printable (int_range 0 200));
        (1, string_size ~gen:char (int_range 0 200));
        ( 3,
          oneofl
            [
              "topology\n  node a\n  node b\n  link a b\n";
              "topology\n  node a\nrouter a\n  originate 10.0.0.0/8\n";
              "router ghost\n  ospf area 0\n";
              "topology\n  link a b\n";
              "route-map RM\n  10 permit\n    set local-pref banana\n";
              "topology\n  node a\n  node a\n";
            ] );
      ])

let prop_parse_never_crashes =
  QCheck.Test.make ~name:"parse_full never raises" ~count:(fuzz_count * 4)
    (QCheck.make garbage_gen) (fun text ->
      match Config_text.parse_full text with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "parse_full raised %s"
          (Printexc.to_string e))

(* Print a real network, then corrupt the text deterministically from the
   seed: truncate, drop a line, or clobber a byte. Parsing may fail (typed
   diagnostics) or succeed; either way nothing may escape. *)
let corrupt ~seed text =
  let n = String.length text in
  if n = 0 then text
  else
    match seed mod 4 with
    | 0 -> String.sub text 0 (seed * 37 mod n) (* truncate *)
    | 1 ->
      String.split_on_char '\n' text
      |> List.filteri (fun i _ -> i <> seed * 13 mod 40)
      |> String.concat "\n" (* drop a line *)
    | 2 ->
      let b = Bytes.of_string text in
      Bytes.set b (seed * 101 mod n) '@';
      Bytes.to_string b (* clobber a byte *)
    | _ -> text (* leave intact: exercise the full pipeline *)

(* End-to-end: parse → compile → compress → solve under a per-case
   deadline. Only typed errors ([Bonsai_error.Error], [Budget.Exhausted])
   may escape; a successful non-degraded run must satisfy the
   differential oracle (CP-equivalence against the concrete solution). *)
let pipeline_case (n, seed) =
  let text = corrupt ~seed (Config_text.print (Synthesis.random_network ~n ~seed)) in
  let budget = Budget.create ~deadline_s:2.0 () in
  let run () =
    match Config_text.parse_full text with
    | Error diags ->
      Bonsai_error.error (Bonsai_error.Parse_error { diagnostics = diags })
    | Ok (net, _) -> (
      match Ecs.compute net with
      | [] -> `No_ecs
      | ec :: _ when List.length ec.Ecs.ec_origins > 1 -> `No_ecs
      | ec :: _ ->
        let r = Bonsai_api.compress_ec_exn ~budget net ec in
        let srp =
          Compile.bgp_srp net ~dest:(Ecs.single_origin ec)
            ~dest_prefix:ec.Ecs.ec_prefix
        in
        (match Solver.solve ~budget srp with
        | Ok (sol, _) -> `Solved (r, sol)
        | Error (`Diverged _) | Error (`Budget _) -> `Unstable))
  in
  match run () with
  | `No_ecs | `Unstable -> true
  | `Solved (r, sol) ->
    r.Bonsai_api.degraded
    || (fst (Equivalence.check Compile.Bgp r.Bonsai_api.abstraction sol))
         .Equivalence.ok
  | exception Bonsai_error.Error _ -> true
  | exception Budget.Exhausted _ -> true
  | exception e ->
    QCheck.Test.fail_reportf "pipeline escaped a %s"
      (Printexc.to_string e)

let prop_pipeline_never_crashes =
  QCheck.Test.make ~name:"pipeline: only typed errors escape"
    ~count:fuzz_count
    QCheck.(pair (int_range 2 12) (int_range 0 100_000))
    pipeline_case

(* Shrunk from the property above: an eBGP-leaked local preference
   broke CP-equivalence on this network. *)
let test_pipeline_lp_regression () =
  Alcotest.(check bool) "pipeline (7, 51903)" true (pipeline_case (7, 51903))

(* Same pipeline under a starvation budget: with one tick everything
   either degrades or reports Budget_exceeded — never hangs, never
   crashes. *)
let prop_pipeline_starved =
  QCheck.Test.make ~name:"pipeline: 1-tick budget is typed"
    ~count:fuzz_count
    QCheck.(pair (int_range 2 12) (int_range 0 100_000))
    (fun (n, seed) ->
      let net = Synthesis.random_network ~n ~seed in
      match
        Bonsai_error.protect (fun () ->
            Bonsai_api.compress_exn
              ~budget:(Budget.create ~max_ticks:1 ())
              net)
      with
      | Ok s -> s.Bonsai_api.degradation <> None
      | Error (Bonsai_error.Budget_exceeded _) -> true
      | Error e ->
        QCheck.Test.fail_reportf "unexpected typed error %s"
          (Format.asprintf "%a" Bonsai_error.pp e))

let () =
  Alcotest.run "guard"
    [
      ( "budget",
        [
          Alcotest.test_case "infinite" `Quick test_infinite_never_exhausts;
          Alcotest.test_case "tick limit" `Quick test_tick_limit;
          Alcotest.test_case "deadline" `Quick test_deadline;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "with_note" `Quick test_with_note;
        ] );
      ( "governed-loops",
        [
          Alcotest.test_case "bdd exhausts" `Quick test_bdd_budget_exhausts;
          Alcotest.test_case "bdd infinite unchanged" `Quick
            test_bdd_infinite_unchanged;
          Alcotest.test_case "bdd node cap" `Quick test_bdd_node_cap;
          Alcotest.test_case "solver exhausts" `Quick
            test_solver_budget_exhausts;
          Alcotest.test_case "solver infinite unchanged" `Quick
            test_solver_infinite_unchanged;
          Alcotest.test_case "refine exhausts" `Quick
            test_refine_budget_exhausts;
          Alcotest.test_case "refine infinite unchanged" `Quick
            test_refine_infinite_unchanged;
          Alcotest.test_case "survey truncates" `Quick test_survey_truncates;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "compress_ec typed error" `Quick
            test_compress_ec_budget_error;
          Alcotest.test_case "compress degrades to identity" `Quick
            test_compress_degrades_to_identity;
          Alcotest.test_case "degraded abstraction sound" `Quick
            test_degraded_abstraction_is_sound;
          Alcotest.test_case "exit codes distinct" `Quick
            test_error_exit_codes_distinct;
          Alcotest.test_case "protect" `Quick test_protect_catches;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "pipeline lp (7, 51903)" `Quick
            test_pipeline_lp_regression;
        ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_parse_never_crashes;
            prop_pipeline_never_crashes;
            prop_pipeline_starved;
          ] );
    ]
