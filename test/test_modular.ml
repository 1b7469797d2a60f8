(* Tests for modular compression (lib/modular): the Budget.split
   isolation primitive, partition determinism, pinned boundary stubs,
   and the robustness contract: an injected fault degrades exactly one
   module, leaving every other module's report identical to the
   all-healthy run.

   QCheck iteration count scales with FUZZ_COUNT as in test_incr. *)

let fuzz_count =
  match Option.bind (Sys.getenv_opt "FUZZ_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 25

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" what Bonsai_error.pp e

(* --- Budget.split ----------------------------------------------------- *)

let test_split_quota () =
  let b = Budget.create ~max_ticks:100 () in
  let c = Budget.split b ~frac:0.1 in
  for _ = 1 to 10 do
    Budget.tick c ~phase:"test"
  done;
  (* the child's quota is 10% of the parent's remaining 100 ticks *)
  (match Budget.tick c ~phase:"test" with
  | () -> Alcotest.fail "child slice did not exhaust at its quota"
  | exception Budget.Exhausted _ -> ());
  (* ...and its work charged the parent, but did not exhaust it *)
  Alcotest.(check bool) "parent charged" true (Budget.ticks b >= 10);
  Budget.tick b ~phase:"test";
  (* a sibling slice carved after the fault is alive and independent *)
  let c2 = Budget.split b ~frac:0.5 in
  Budget.tick c2 ~phase:"test"

let test_split_infinite () =
  Alcotest.(check bool) "split infinite = infinite" true
    (Budget.is_infinite (Budget.split Budget.infinite ~frac:0.25))

let test_split_cancel_propagates () =
  let b = Budget.create () in
  let c = Budget.split b ~frac:0.5 in
  Budget.cancel b;
  Alcotest.(check bool) "child sees parent cancel" true (Budget.cancelled c)

let test_split_bad_frac () =
  let b = Budget.create () in
  List.iter
    (fun frac ->
      match Budget.split b ~frac with
      | _ -> Alcotest.failf "split accepted frac %g" frac
      | exception Invalid_argument _ -> ())
    [ 0.0; -0.5; 1.5 ]

(* --- partition -------------------------------------------------------- *)

let fattree4 () = Synthesis.fattree_shortest_path (Generators.fattree ~k:4)
let multiwan ~regions ~region_size =
  (Synthesis.multiwan ~regions ~region_size).Synthesis.net

let covers_exactly net parts =
  let n = Graph.n_nodes net.Device.graph in
  let seen = Array.make n 0 in
  List.iter (fun (_, ms) -> List.iter (fun i -> seen.(i) <- seen.(i) + 1) ms)
    parts;
  Array.for_all (fun c -> c = 1) seen

let ok_exn' = function
  | Ok v -> v
  | Error m -> Alcotest.failf "partition: %s" m

let test_partition_auto_deterministic () =
  let net = fattree4 () in
  let p1 = ok_exn' (Modular.partition ~count:3 ~mode:Modular.Auto net)
  and p2 = ok_exn' (Modular.partition ~count:3 ~mode:Modular.Auto net) in
  Alcotest.(check bool) "deterministic" true (p1 = p2);
  (* BFS carving can shed small leftover fragments beyond the requested
     count, but never fewer regions than asked for *)
  Alcotest.(check bool) "at least the requested regions" true
    (List.length p1 >= 3);
  Alcotest.(check bool) "covers every node once" true (covers_exactly net p1);
  Alcotest.(check bool) "name-sorted" true
    (List.sort compare (List.map fst p1) = List.map fst p1)

let test_partition_annot () =
  let net = multiwan ~regions:3 ~region_size:4 in
  let p = ok_exn' (Modular.partition ~mode:Modular.Annot net) in
  Alcotest.(check (list string)) "annotated modules"
    [ "core"; "region0"; "region1"; "region2" ]
    (List.map fst p);
  Alcotest.(check bool) "covers every node once" true (covers_exactly net p)

let test_partition_annot_missing () =
  match Modular.partition ~mode:Modular.Annot (Synthesis.ring_bgp ~n:4) with
  | Ok _ -> Alcotest.fail "Annot accepted an unannotated network"
  | Error m ->
    Alcotest.(check bool) "diagnostic names the gap" true
      (Astring_contains.contains m "module annotation")

(* --- per-module runs ------------------------------------------------ *)

(* Every boundary stub (a subnet router past the module's members) is
   pinned: a singleton group in each of its module's classes. *)
let check_stubs_pinned st =
  List.iter
    (fun (mr : Modular.module_report) ->
      match Modular.module_summary st mr.Modular.mr_name with
      | None -> Alcotest.failf "%s: no results" mr.Modular.mr_name
      | Some s ->
        let n = Graph.n_nodes s.Bonsai_api.net.Device.graph in
        List.iter
          (fun (r : Bonsai_api.ec_result) ->
            let a = r.Bonsai_api.abstraction in
            for v = mr.Modular.mr_routers to n - 1 do
              Alcotest.(check (list int))
                (Printf.sprintf "%s: stub %d alone" mr.Modular.mr_name v)
                [ v ]
                a.Abstraction.groups.(a.Abstraction.group_of.(v))
            done)
          s.Bonsai_api.results)
    (Modular.report st).Modular.rp_modules

let test_run_ring () =
  let st =
    ok_exn "run" (Modular.run ~mode:Modular.Auto ~count:3 (Synthesis.ring_bgp ~n:9))
  in
  check_stubs_pinned st

let test_run_fattree () =
  let st = ok_exn "run" (Modular.run ~mode:Modular.Auto ~count:4 (fattree4 ())) in
  check_stubs_pinned st

let test_run_multiwan_annot () =
  let st =
    ok_exn "run"
      (Modular.run ~mode:Modular.Annot (multiwan ~regions:3 ~region_size:4))
  in
  let rep = Modular.report st in
  Alcotest.(check int) "no faults" 0
    (List.length
       (List.filter
          (fun m -> m.Modular.mr_health <> Modular.Healthy)
          rep.Modular.rp_modules));
  check_stubs_pinned st

let test_certify_clean () =
  let st =
    ok_exn "run"
      (Modular.run ~mode:Modular.Annot ~certify:true
         (multiwan ~regions:2 ~region_size:3))
  in
  Alcotest.(check bool) "no module refuted" false
    (List.exists
       (fun m -> m.Modular.mr_health = Modular.Refuted)
       (Modular.report st).Modular.rp_modules)

(* --- fault isolation -------------------------------------------------- *)

let mr_eq (a : Modular.module_report) (b : Modular.module_report) =
  (* everything except wall-clock *)
  a.Modular.mr_name = b.Modular.mr_name
  && a.Modular.mr_routers = b.Modular.mr_routers
  && a.Modular.mr_ecs = b.Modular.mr_ecs
  && a.Modular.mr_concrete = b.Modular.mr_concrete
  && a.Modular.mr_abstract = b.Modular.mr_abstract
  && a.Modular.mr_health = b.Modular.mr_health
  && a.Modular.mr_detail = b.Modular.mr_detail

let check_fault_isolated ~victim net =
  let healthy = ok_exn "run" (Modular.run ~mode:Modular.Annot net) in
  let faulted =
    ok_exn "run faulted"
      (Modular.run ~mode:Modular.Annot ~inject_fault:[ victim ] net)
  in
  let h_rep = Modular.report healthy and f_rep = Modular.report faulted in
  List.iter2
    (fun (h : Modular.module_report) (f : Modular.module_report) ->
      if h.Modular.mr_name = victim then begin
        Alcotest.(check string) "victim degraded" "degraded"
          (Modular.health_name f.Modular.mr_health);
        Alcotest.(check bool) "identity abstraction" true
          (f.Modular.mr_abstract = f.Modular.mr_concrete);
        Alcotest.(check bool) "detail names the budget" true
          (match f.Modular.mr_detail with
          | Some d -> Astring_contains.contains d "budget exhausted"
          | None -> false)
      end
      else
        Alcotest.(check bool)
          (Printf.sprintf "%s untouched by %s's fault" h.Modular.mr_name victim)
          true (mr_eq h f))
    h_rep.Modular.rp_modules f_rep.Modular.rp_modules

let test_fault_isolated () =
  check_fault_isolated ~victim:"region1" (multiwan ~regions:3 ~region_size:4)

(* --- streaming -------------------------------------------------------- *)

let test_stream () =
  let rep =
    ok_exn "run_stream"
      (Modular.run_stream ~count:3
         (Synthesis.multiwan_stream ~regions:3 ~region_size:4))
  in
  Alcotest.(check int) "3 modules" 3 (List.length rep.Modular.rp_modules);
  Alcotest.(check bool) "all healthy" false (Modular.any_fault rep);
  (* region_size routers + 1 env stub per self-contained module subnet *)
  Alcotest.(check int) "routers" 15 rep.Modular.rp_routers;
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (m.Modular.mr_name ^ " compressed")
        true
        (m.Modular.mr_abstract < m.Modular.mr_concrete))
    rep.Modular.rp_modules

(* --- fuzz ------------------------------------------------------------- *)

let prop_fault_isolation =
  QCheck.Test.make ~count:fuzz_count
    ~name:"injected fault degrades only the victim module"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let regions = 2 + (seed mod 2) in
      let net = multiwan ~regions ~region_size:(3 + (seed mod 2)) in
      let victim =
        match seed mod (regions + 1) with
        | v when v < regions -> Printf.sprintf "region%d" v
        | _ -> "core"
      in
      check_fault_isolated ~victim net;
      true)

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "modular"
    [
      ( "budget-split",
        [
          Alcotest.test_case "child quota" `Quick test_split_quota;
          Alcotest.test_case "infinite" `Quick test_split_infinite;
          Alcotest.test_case "cancel propagates" `Quick
            test_split_cancel_propagates;
          Alcotest.test_case "bad frac" `Quick test_split_bad_frac;
        ] );
      ( "partition",
        [
          Alcotest.test_case "auto deterministic" `Quick
            test_partition_auto_deterministic;
          Alcotest.test_case "annotations" `Quick test_partition_annot;
          Alcotest.test_case "missing annotation" `Quick
            test_partition_annot_missing;
        ] );
      ( "compose",
        [
          Alcotest.test_case "ring" `Quick test_run_ring;
          Alcotest.test_case "fattree" `Quick test_run_fattree;
          Alcotest.test_case "multiwan (annot)" `Quick
            test_run_multiwan_annot;
          Alcotest.test_case "certify clean" `Quick test_certify_clean;
        ] );
      ( "fault-isolation",
        [ Alcotest.test_case "injected fault" `Quick test_fault_isolated ] );
      ("stream", [ Alcotest.test_case "multiwan-stream" `Quick test_stream ]);
      qsuite "fuzz" [ prop_fault_isolation ];
    ]
