(* Fault-injection engine: scenario enumeration and sampling, re-solving
   under failures, divergence diagnosis, and abstraction soundness under
   failures (paper §9). *)

let ring n =
  Graph.of_links ~n (List.init n (fun i -> (i, (i + 1) mod n)))

let path n =
  Graph.of_links ~n (List.init (n - 1) (fun i -> (i, i + 1)))

(* --- scenario enumeration and sampling ------------------------------- *)

let test_all_links () =
  Alcotest.(check int) "ring 6 links" 6 (List.length (Scenario.all_links (ring 6)));
  Alcotest.(check (list (pair int int)))
    "path links normalized"
    [ (0, 1); (1, 2) ]
    (Scenario.all_links (path 3))

let choose m k =
  let rec go m k = if k = 0 then 1 else go (m - 1) (k - 1) * m / k in
  go m k

let test_enumerate_counts () =
  let g = ring 6 in
  List.iter
    (fun k ->
      let expect =
        List.init k (fun i -> choose 6 (i + 1)) |> List.fold_left ( + ) 0
      in
      let scs = Scenario.enumerate ~k g in
      Alcotest.(check int)
        (Printf.sprintf "ring 6, k=%d" k)
        expect (List.length scs);
      Alcotest.(check int)
        (Printf.sprintf "count agrees, k=%d" k)
        (List.length scs) (Scenario.count ~k g);
      Alcotest.(check int)
        (Printf.sprintf "distinct, k=%d" k)
        (List.length scs)
        (List.length (List.sort_uniq Scenario.compare scs)))
    [ 1; 2; 3 ];
  (* size-major order: all singles before any pair *)
  let sizes = List.map Scenario.size (Scenario.enumerate ~k:2 g) in
  Alcotest.(check (list int))
    "size-major order"
    (List.init 6 (fun _ -> 1) @ List.init 15 (fun _ -> 2))
    sizes

let test_cut_links () =
  Alcotest.(check (list (pair int int)))
    "path: every link is a cut link"
    [ (0, 1); (1, 2) ]
    (Scenario.cut_links (path 3));
  Alcotest.(check (list (pair int int)))
    "ring has no cut link" [] (Scenario.cut_links (ring 5))

let test_sample () =
  (* barbell: two triangles joined by a bridge — the bridge must be
     sampled first *)
  let g =
    Graph.of_links ~n:6
      [ (0, 1); (1, 2); (0, 2); (2, 3); (3, 4); (4, 5); (3, 5) ]
  in
  let scs = Scenario.sample ~k:2 ~samples:5 ~seed:7 g in
  Alcotest.(check int) "sample count" 5 (List.length scs);
  Alcotest.(check int) "distinct" 5
    (List.length (List.sort_uniq Scenario.compare scs));
  Alcotest.(check bool)
    "bridge first" true
    (Scenario.equal (List.hd scs) (Scenario.make [ (2, 3) ]));
  List.iter
    (fun sc ->
      Alcotest.(check bool)
        "size within k" true
        (Scenario.size sc >= 1 && Scenario.size sc <= 2))
    scs;
  Alcotest.(check bool)
    "deterministic in seed" true
    (List.equal Scenario.equal scs (Scenario.sample ~k:2 ~samples:5 ~seed:7 g))

let test_apply () =
  let g = ring 4 in
  let sc = Scenario.make ~nodes:[ 2 ] [ (0, 1) ] in
  let g' = Scenario.apply g sc in
  Alcotest.(check int) "same node count" 4 (Graph.n_nodes g');
  Alcotest.(check string) "names survive" (Graph.name g 2) (Graph.name g' 2);
  Alcotest.(check int) "downed node isolated" 0
    (Array.length (Graph.succ g' 2));
  Alcotest.(check bool) "downed link gone (both ways)" false
    (Graph.has_edge g' 0 1 || Graph.has_edge g' 1 0);
  Alcotest.(check bool) "surviving link kept" true (Graph.has_edge g' 0 3)

(* --- the engine ------------------------------------------------------- *)

let test_survives () =
  Alcotest.(check bool)
    "downed dest" false
    (Fault_engine.survives (Scenario.make ~nodes:[ 0 ] []) ~dest:0);
  Alcotest.(check bool)
    "downed link touching dest is fine" true
    (Fault_engine.survives (Scenario.make [ (0, 1) ]) ~dest:0)

let test_engine_outcomes () =
  let srp = Rip.make (ring 4) ~dest:0 in
  (match Fault_engine.run srp (Scenario.make [ (1, 2) ]) with
  | Fault_engine.Stable sol ->
    Alcotest.(check bool) "ring survives one failure" true
      (List.init 4 Fun.id
      |> List.for_all (fun u -> u = 0 || Solution.reaches sol u))
  | _ -> Alcotest.fail "expected Stable");
  match Fault_engine.run srp (Scenario.make [ (1, 2); (2, 3) ]) with
  | Fault_engine.Disconnected (_, stranded) ->
    Alcotest.(check (list int)) "node 2 stranded" [ 2 ] stranded
  | _ -> Alcotest.fail "expected Disconnected"

let test_plan () =
  let g = ring 6 in
  let p = Fault_engine.plan ~k:2 g in
  Alcotest.(check bool) "small space is exhaustive" true
    p.Fault_engine.exhaustive;
  Alcotest.(check int) "all 21 scenarios" 21
    (List.length p.Fault_engine.scenarios);
  (* a 50-ring at k=2 has C(50,1)+C(50,2) = 1,275 scenarios, past the
     exhaustive cap *)
  let big = ring 50 in
  Alcotest.(check int) "space past the cap" 1275 (Scenario.count ~k:2 big);
  let p = Fault_engine.plan ~k:2 big in
  Alcotest.(check bool) "over budget samples" false p.Fault_engine.exhaustive;
  Alcotest.(check int) "default sample size" 256
    (List.length p.Fault_engine.scenarios);
  let p = Fault_engine.plan ~sampling:(Fault_engine.Sample 4) ~k:2 g in
  Alcotest.(check int) "forced samples" 4 (List.length p.Fault_engine.scenarios)

let test_search () =
  (* the search stops at the first failing scenario of the plan, counts
     the checks it made, and shrinks the failure *)
  let plan = Fault_engine.plan ~k:2 (ring 6) in
  let check sc =
    if List.mem (2, 3) sc.Scenario.down_links then Some (Scenario.size sc)
    else None
  in
  let r = Fault_engine.search check plan in
  (* links (0,1) (0,5) (1,2) pass, the single (2,3) is the fourth *)
  Alcotest.(check int) "checked up to the failure" 4 r.Fault_engine.checked;
  (match r.Fault_engine.failure with
  | Some (sc, size) ->
    Alcotest.(check bool) "the failing link" true
      (Scenario.equal sc (Scenario.make [ (2, 3) ]));
    Alcotest.(check int) "failure recomputed on it" 1 size
  | None -> Alcotest.fail "expected a failure");
  Alcotest.(check bool) "not cut" true (Option.is_none r.Fault_engine.cut);
  (* a cancelled budget ends the search before its first check *)
  let b = Budget.create () in
  Budget.cancel b;
  let r = Fault_engine.search ~budget:b check plan in
  Alcotest.(check int) "nothing checked" 0 r.Fault_engine.checked;
  Alcotest.(check bool) "cut, no failure" true
    (Option.is_some r.Fault_engine.cut
    && Option.is_none r.Fault_engine.failure);
  (* a budget that runs out while shrinking keeps the failure it found,
     unshrunk: the first failing scenario of a 6-ring at k=2 that downs
     both (0,1) and (1,2) is that pair *)
  let b = Budget.create () in
  let check sc =
    let l = sc.Scenario.down_links in
    if List.mem (0, 1) l && List.mem (1, 2) l then begin
      Budget.cancel b;
      Some (Scenario.size sc)
    end
    else None
  in
  let r = Fault_engine.search ~budget:b check plan in
  Alcotest.(check bool) "cut while shrinking" true
    (Option.is_some r.Fault_engine.cut);
  match r.Fault_engine.failure with
  | Some (sc, size) ->
    Alcotest.(check bool) "the failure as found" true
      (Scenario.equal sc (Scenario.make [ (0, 1); (1, 2) ]));
    Alcotest.(check int) "its check's payload" 2 size;
    Alcotest.(check bool) "checked through it" true
      (Scenario.equal sc
         (List.nth plan.Fault_engine.scenarios (r.Fault_engine.checked - 1)))
  | None -> Alcotest.fail "expected the failure found before the cut"

let test_survey () =
  let srp = Rip.make (ring 4) ~dest:0 in
  let plan = Fault_engine.plan ~k:2 (ring 4) in
  let r = Fault_engine.survey srp plan in
  (* C(4,1)+C(4,2) = 10 scenarios; a 4-ring tolerates any single failure
     but every pair of failures cuts some node off from the dest *)
  Alcotest.(check int) "total" 10
    (r.Fault_engine.n_stable + r.Fault_engine.n_disconnected
    + r.Fault_engine.n_diverged);
  Alcotest.(check int) "diverged" 0 r.Fault_engine.n_diverged;
  Alcotest.(check int) "singles all stable" 4 r.Fault_engine.n_stable;
  Alcotest.(check int) "every pair disconnects" 6
    r.Fault_engine.n_disconnected

let test_cache () =
  let srp = Rip.make (ring 4) ~dest:0 in
  let cache = Fault_engine.cache () in
  let sc = Scenario.make [ (1, 2) ] in
  let classify = function
    | Fault_engine.Stable _ -> "stable"
    | Fault_engine.Disconnected _ -> "disconnected"
    | Fault_engine.Diverged _ -> "diverged"
  in
  let first = Fault_engine.run ~cache srp sc in
  Alcotest.(check int) "miss on first solve" 0 (Fault_engine.cache_hits cache);
  Alcotest.(check int) "one entry" 1 (Fault_engine.cache_size cache);
  let second = Fault_engine.run ~cache srp sc in
  Alcotest.(check int) "hit on re-solve" 1 (Fault_engine.cache_hits cache);
  Alcotest.(check string) "same outcome" (classify first) (classify second);
  (* an equal-but-not-identical scenario still hits: the normalized
     downed set is the key *)
  ignore (Fault_engine.run ~cache srp (Scenario.make [ (2, 1); (1, 2) ]));
  Alcotest.(check int) "normalized key hits" 2 (Fault_engine.cache_hits cache);
  (* a cache hit consumes no budget *)
  let starved = Budget.create ~max_ticks:0 () in
  (match Fault_engine.run ~cache ~budget:starved srp sc with
  | _ -> ()
  | exception Budget.Exhausted _ ->
    Alcotest.fail "cache hit must not consume budget");
  Alcotest.(check int) "still hitting" 3 (Fault_engine.cache_hits cache)

let test_survey_cache_hits () =
  let srp = Rip.make (ring 4) ~dest:0 in
  let plan = Fault_engine.plan ~k:2 (ring 4) in
  let cache = Fault_engine.cache () in
  let cold = Fault_engine.survey ~cache srp plan in
  Alcotest.(check int) "cold survey: no hits" 0 cold.Fault_engine.n_cache_hits;
  let warm = Fault_engine.survey ~cache srp plan in
  Alcotest.(check int)
    "warm survey: every scenario answered from cache"
    (List.length plan.Fault_engine.scenarios)
    warm.Fault_engine.n_cache_hits;
  Alcotest.(check int) "verdicts unchanged" cold.Fault_engine.n_disconnected
    warm.Fault_engine.n_disconnected;
  let uncached = Fault_engine.survey srp plan in
  Alcotest.(check int) "no cache, no hits" 0 uncached.Fault_engine.n_cache_hits

(* --- divergence diagnosis --------------------------------------------- *)

type owned = { owner : int; opath : int list }

let bad_gadget_srp () =
  (* the classic BGP bad gadget (Griffin et al.): no stable solution *)
  let g =
    Graph.of_links ~n:4 [ (0, 1); (0, 2); (0, 3); (1, 2); (2, 3); (3, 1) ]
  in
  let clockwise = function 1 -> 2 | 2 -> 3 | 3 -> 1 | _ -> 0 in
  let rank o = function
    | [ v; 0 ] when v = clockwise o -> 0
    | [ 0 ] -> 1
    | _ -> 2
  in
  {
    Srp.graph = g;
    dest = 0;
    init = { owner = 0; opath = [] };
    compare =
      (fun a b ->
        if a.owner = b.owner then
          compare (rank a.owner a.opath) (rank b.owner b.opath)
        else 0);
    trans =
      (fun u v a ->
        match a with
        | None -> None
        | Some a ->
          let opath = v :: a.opath in
          if List.mem u opath then None else Some { owner = u; opath });
    attr_equal = ( = );
    pp_attr =
      (fun ppf a ->
        Format.fprintf ppf "%d:%s" a.owner
          (String.concat "." (List.map string_of_int a.opath)));
  }

let test_diagnosis_oscillation () =
  match Solver.solve ~max_steps:2000 (bad_gadget_srp ()) with
  | Ok _ -> Alcotest.fail "bad gadget must not stabilize"
  | Error (`Budget _) -> Alcotest.fail "max_steps must diagnose, not bail"
  | Error (`Diverged d) -> (
    Alcotest.(check bool) "spent the budget" true (d.Solver.diag_steps > 0);
    Alcotest.(check bool) "trace tail kept" true (d.Solver.diag_trace <> []);
    match d.Solver.diag_verdict with
    | Solver.Oscillation { period; participants } ->
      Alcotest.(check bool) "positive period" true (period > 0);
      Alcotest.(check bool) "participants are the gadget ring" true
        (participants <> []
        && List.for_all (fun u -> List.mem u [ 1; 2; 3 ]) participants)
    | _ -> Alcotest.fail "expected an oscillation verdict")

let test_diagnosis_likely_convergent () =
  (* a convergent SRP with a starved budget: the diagnosis sweep reaches a
     fixed point and says so instead of crying oscillation *)
  match Solver.solve ~max_steps:1 (Rip.make (ring 10) ~dest:0) with
  | Ok _ -> Alcotest.fail "one step cannot stabilize a 10-ring"
  | Error (`Budget _) -> Alcotest.fail "max_steps must diagnose, not bail"
  | Error (`Diverged d) -> (
    match d.Solver.diag_verdict with
    | Solver.Likely_convergent -> ()
    | v ->
      Alcotest.failf "expected Likely_convergent, got %a"
        (Solver.pp_verdict ~graph:(ring 10))
        v)

let test_solve_exn_diagnosis_message () =
  match Solver.solve_exn ~max_steps:2000 (bad_gadget_srp ()) with
  | _ -> Alcotest.fail "bad gadget must not stabilize"
  | exception Bonsai_error.Error (Bonsai_error.Divergence msg) ->
    let has needle = Astring_contains.contains msg needle in
    Alcotest.(check bool) "names the step count" true (has "diverged after");
    Alcotest.(check bool) "names the oscillation" true (has "oscillation");
    Alcotest.(check bool) "names a participant" true (has "n1" || has "1")

(* --- solution dedup uses attr_equal, not polymorphic compare ---------- *)

let closure_srp () =
  (* attributes carry a closure: polymorphic compare would raise
     Invalid_argument "compare: functional value" *)
  {
    Srp.graph = path 3;
    dest = 0;
    init = (0, Fun.id);
    compare = (fun (a, _) (b, _) -> Int.compare a b);
    trans =
      (fun _u _v a ->
        match a with
        | None -> None
        | Some (h, f) -> if h >= 15 then None else Some (h + 1, f));
    attr_equal = (fun (a, _) (b, _) -> Int.equal a b);
    pp_attr = (fun ppf (h, _) -> Format.pp_print_int ppf h);
  }

let test_dedup_with_closures () =
  let sols = Solver.solutions_sample ~tries:6 (closure_srp ()) in
  Alcotest.(check int) "one distinct solution" 1 (List.length sols);
  let sols = Solver.enumerate_solutions (closure_srp ()) in
  Alcotest.(check int) "enumerate agrees" 1 (List.length sols)

(* --- shrinking -------------------------------------------------------- *)

let test_shrink_exact () =
  let fails sc =
    List.mem (1, 2) sc.Scenario.down_links
    && List.mem (3, 4) sc.Scenario.down_links
  in
  let big = Scenario.make ~nodes:[ 9 ] [ (1, 2); (2, 3); (3, 4); (5, 6) ] in
  let m = Scenario.shrink fails big in
  Alcotest.(check bool) "shrinks to the two guilty links" true
    (Scenario.equal m (Scenario.make [ (1, 2); (3, 4) ]))

let test_shrink_requires_failing () =
  match Scenario.shrink (fun _ -> false) (Scenario.make [ (0, 1) ]) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let qcheck_shrink_minimal =
  (* the shrunk scenario of a monotone failure is exactly the guilty set,
     and dropping any single element of it makes the failure disappear *)
  let links = Scenario.all_links (ring 6) in
  let of_mask mask =
    List.filteri (fun i _ -> mask land (1 lsl i) <> 0) links
  in
  QCheck.Test.make ~name:"shrink is 1-minimal" ~count:200
    QCheck.(pair (int_range 1 63) (int_range 0 63))
    (fun (target_mask, extra_mask) ->
      let target = of_mask target_mask in
      let sc = Scenario.make (of_mask (target_mask lor extra_mask)) in
      let fails sc =
        List.for_all (fun l -> List.mem l sc.Scenario.down_links) target
      in
      let m = Scenario.shrink fails sc in
      fails m
      && Scenario.equal m (Scenario.make target)
      && List.for_all
           (fun e ->
             let smaller =
               Scenario.of_elements
                 (List.filter (fun e' -> e' <> e) (Scenario.elements m))
             in
             not (fails smaller))
           (Scenario.elements m))

(* --- abstraction soundness under failures ----------------------------- *)

let test_soundness_fattree () =
  (* the paper §9 caveat, mechanized: the fault-free fattree abstraction
     is broken by (any) single aggregation-core link failure *)
  let ft = Generators.fattree ~k:4 in
  let net = Synthesis.fattree_shortest_path ft in
  let ec = List.hd (Ecs.compute net) in
  let dest = Ecs.single_origin ec in
  let t = (Bonsai_api.compress_ec_exn net ec).Bonsai_api.abstraction in
  let concrete = Compile.bgp_srp net ~dest ~dest_prefix:ec.Ecs.ec_prefix in
  let abstract_ = Abstraction.bgp_srp t in
  let plan = Fault_engine.plan ~k:1 net.Device.graph in
  match (Soundness.sweep t ~concrete ~abstract_ plan).Fault_engine.failure with
  | None -> Alcotest.fail "expected the fattree abstraction to break"
  | Some (sc, (m, _)) ->
    Alcotest.(check int) "minimal set is a single link" 1 (Scenario.size sc);
    Alcotest.(check bool) "concrete side still routes" true
      m.Soundness.concrete_reaches;
    Alcotest.(check bool) "abstract side is partitioned" false
      m.Soundness.abstract_reaches;
    Alcotest.(check bool) "both sides converged" true
      (m.Soundness.concrete_stable && m.Soundness.abstract_stable)

let test_sweep_mismatches () =
  (* on the fattree's breaking scenario, the sweep reports every
     disagreeing node, ascending *)
  let ft = Generators.fattree ~k:4 in
  let net = Synthesis.fattree_shortest_path ft in
  let ec = List.hd (Ecs.compute net) in
  let dest = Ecs.single_origin ec in
  let t = (Bonsai_api.compress_ec_exn net ec).Bonsai_api.abstraction in
  let concrete = Compile.bgp_srp net ~dest ~dest_prefix:ec.Ecs.ec_prefix in
  let abstract_ = Abstraction.bgp_srp t in
  let sweep scenarios =
    Soundness.sweep t ~concrete ~abstract_
      { Fault_engine.scenarios; exhaustive = false }
  in
  let sc, all =
    match
      (sweep (Fault_engine.plan ~k:1 net.Device.graph).Fault_engine.scenarios)
        .Fault_engine.failure
    with
    | Some (sc, (m, ms)) -> (sc, m :: ms)
    | None -> Alcotest.fail "expected the fattree abstraction to break"
  in
  Alcotest.(check bool) "several nodes disagree" true (List.length all > 1);
  let ids = List.map (fun m -> m.Soundness.mis_node) all in
  Alcotest.(check (list int)) "ascending, distinct"
    (List.sort_uniq Int.compare ids)
    ids;
  (match (sweep [ sc ]).Fault_engine.failure with
  | Some (sc', (m, ms)) ->
    Alcotest.(check bool) "the minimal scenario stays minimal" true
      (Scenario.equal sc sc');
    Alcotest.(check (list int)) "the same mismatches on a re-check" ids
      (List.map (fun m -> m.Soundness.mis_node) (m :: ms))
  | None -> Alcotest.fail "the minimal scenario must still fail");
  (* an intact-topology scenario yields no mismatch *)
  let intact = sweep [ Scenario.make [] ] in
  Alcotest.(check bool) "intact topology agrees" true
    (Option.is_none intact.Fault_engine.failure);
  Alcotest.(check int) "one scenario checked" 1 intact.Fault_engine.checked

let test_soundness_identity_ok () =
  (* sanity: comparing a network against itself (identity abstraction via
     a faithful SRP copy) never reports a break on a fault-tolerant
     topology when concrete and abstract agree by construction *)
  let srp = Rip.make (ring 5) ~dest:0 in
  let report =
    Fault_engine.survey srp (Fault_engine.plan ~k:1 (ring 5))
  in
  Alcotest.(check int) "ring tolerates any single failure" 5
    report.Fault_engine.n_stable

(* Both front ends reach Soundness.run; a failure bound below 1 is the
   same typed error harden reports, not an exception from deep inside.
   k = 0 plans no scenario, so it would report "sound" having checked
   nothing. *)
let test_run_negative_k () =
  let net = Synthesis.ring_bgp ~n:4 in
  let ec = List.hd (Ecs.compute net) in
  let abstraction =
    (Bonsai_api.compress_ec_exn net ec).Bonsai_api.abstraction
  in
  List.iter
    (fun k ->
      match
        Soundness.run ~budget:Budget.infinite ~samples:None ~seed:0 ~k
          ~abstraction net ec
      with
      | _ -> Alcotest.failf "k=%d accepted" k
      | exception Bonsai_error.Error (Bonsai_error.Compile_error m) ->
        Alcotest.(check string) "message" "Soundness.run: k must be positive" m)
    [ -1; 0 ]

(* A sample count below 1 would sweep no scenario and report "sound". *)
let test_run_nonpositive_samples () =
  let net = Synthesis.ring_bgp ~n:4 in
  let ec = List.hd (Ecs.compute net) in
  let abstraction =
    (Bonsai_api.compress_ec_exn net ec).Bonsai_api.abstraction
  in
  List.iter
    (fun samples ->
      match
        Soundness.run ~budget:Budget.infinite ~samples:(Some samples) ~seed:0
          ~k:1 ~abstraction net ec
      with
      | _ -> Alcotest.failf "samples=%d accepted" samples
      | exception Bonsai_error.Error (Bonsai_error.Compile_error m) ->
        Alcotest.(check string)
          "message" "Soundness.run: samples must be positive" m)
    [ 0; -3 ]

let () =
  Alcotest.run "faults"
    [
      ( "scenario",
        [
          Alcotest.test_case "all_links" `Quick test_all_links;
          Alcotest.test_case "enumerate counts" `Quick test_enumerate_counts;
          Alcotest.test_case "cut links" `Quick test_cut_links;
          Alcotest.test_case "sampling" `Quick test_sample;
          Alcotest.test_case "apply" `Quick test_apply;
        ] );
      ( "engine",
        [
          Alcotest.test_case "survives" `Quick test_survives;
          Alcotest.test_case "outcomes" `Quick test_engine_outcomes;
          Alcotest.test_case "plan" `Quick test_plan;
          Alcotest.test_case "search" `Quick test_search;
          Alcotest.test_case "survey" `Quick test_survey;
          Alcotest.test_case "cache" `Quick test_cache;
          Alcotest.test_case "survey cache hits" `Quick test_survey_cache_hits;
        ] );
      ( "diagnosis",
        [
          Alcotest.test_case "oscillation" `Quick test_diagnosis_oscillation;
          Alcotest.test_case "likely convergent" `Quick
            test_diagnosis_likely_convergent;
          Alcotest.test_case "solve_exn message" `Quick
            test_solve_exn_diagnosis_message;
          Alcotest.test_case "dedup with closures" `Quick
            test_dedup_with_closures;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "exact" `Quick test_shrink_exact;
          Alcotest.test_case "requires failing input" `Quick
            test_shrink_requires_failing;
          QCheck_alcotest.to_alcotest qcheck_shrink_minimal;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "fattree breaks under one failure" `Quick
            test_soundness_fattree;
          Alcotest.test_case "check_all collects every mismatch" `Quick
            test_sweep_mismatches;
          Alcotest.test_case "ring survives" `Quick test_soundness_identity_ok;
          Alcotest.test_case "run refuses negative k" `Quick
            test_run_negative_k;
          Alcotest.test_case "run refuses samples below 1" `Quick
            test_run_nonpositive_samples;
        ] );
    ]
