(* Counterexample-guided abstraction repair (lib/repair): the hardened
   abstraction is fault-sound, the loop is monotone in its pin set, and
   exhaustion degrades to the identity abstraction instead of ever
   returning an unsound result. *)

let fattree4 () = Synthesis.fattree_shortest_path (Generators.fattree ~k:4)

let first_ec net = List.hd (Ecs.compute net)

(* Re-discharge the guarantee from scratch: no swept scenario
   distinguishes the hardened abstraction from the concrete network. *)
let recheck (net : Device.network) (ec : Ecs.ec) (t : Abstraction.t) ~k =
  (Soundness.sweep t
     ~concrete:
       (Compile.bgp_srp net ~dest:(Ecs.single_origin ec)
          ~dest_prefix:ec.Ecs.ec_prefix)
     ~abstract_:(Abstraction.bgp_srp t)
     (Fault_engine.plan ~k net.Device.graph))
    .Fault_engine.failure

(* --- the acceptance case: fattree:4 under single failures ------------- *)

let test_fattree_repaired () =
  let net = fattree4 () in
  let ec = first_ec net in
  (* precondition: the plain abstraction is fault-unsound (paper §9) *)
  let plain = (Bonsai_api.compress_ec_exn net ec).Bonsai_api.abstraction in
  Alcotest.(check bool)
    "plain abstraction breaks" true
    (recheck net ec plain ~k:1 <> None);
  let r = Repair.harden_exn ~k:1 net ec in
  Alcotest.(check bool) "sound" true r.Repair.sound;
  Alcotest.(check bool)
    "no fallback" true
    (r.Repair.fallback = Bonsai_api.No_fallback);
  Alcotest.(check bool)
    "repaired within the default rounds" true
    (List.length r.Repair.rounds <= 8 + 1);
  Alcotest.(check bool)
    "at least one counterexample consumed" true
    (r.Repair.n_counterexamples >= 1);
  Alcotest.(check bool) "pins were added" true (r.Repair.pins <> []);
  Alcotest.(check bool)
    "not flagged degraded" false
    r.Repair.result.Bonsai_api.degraded;
  (* the final sweep of the loop used the same enumeration, but trust
     nothing: re-build both SRPs and sweep again *)
  Alcotest.(check bool)
    "no counterexample on the hardened abstraction" true
    (recheck net ec r.Repair.result.Bonsai_api.abstraction ~k:1 = None)

let test_round_log_shape () =
  let net = fattree4 () in
  let ec = first_ec net in
  let r = Repair.harden_exn ~k:1 net ec in
  let rounds = r.Repair.rounds in
  Alcotest.(check (list int))
    "rounds are numbered chronologically"
    (List.init (List.length rounds) (fun i -> i + 1))
    (List.map (fun rl -> rl.Repair.rl_round) rounds);
  (* every round but the last carries a counterexample; the last is the
     clean sweep *)
  let rec split_last = function
    | [] -> Alcotest.fail "no rounds logged"
    | [ last ] -> ([], last)
    | x :: rest ->
      let init, last = split_last rest in
      (x :: init, last)
  in
  let failing, last = split_last rounds in
  List.iter
    (fun rl ->
      Alcotest.(check bool)
        "failing round has a counterexample" true
        (rl.Repair.rl_counterexample <> None);
      Alcotest.(check bool)
        "failing round has mismatches" true
        (rl.Repair.rl_mismatches <> []);
      Alcotest.(check bool)
        "failing round pinned something" true
        (rl.Repair.rl_new_pins <> []))
    failing;
  Alcotest.(check bool)
    "last round is the clean sweep" true
    (last.Repair.rl_counterexample = None);
  Alcotest.(check int)
    "clean sweep covered the whole k=1 space"
    (Scenario.count ~k:1 net.Device.graph)
    last.Repair.rl_scenarios

(* --- termination: pins grow monotonically, bounded by node count ------ *)

let test_pins_monotone () =
  let net = fattree4 () in
  let ec = first_ec net in
  let n = Graph.n_nodes net.Device.graph in
  let r = Repair.harden_exn ~k:1 net ec in
  let totals = List.map (fun rl -> rl.Repair.rl_total_pins) r.Repair.rounds in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a <= b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "cumulative pin count never shrinks" true
    (increasing totals);
  List.iter
    (fun rl ->
      Alcotest.(check bool)
        "total pins never exceed the node count" true
        (rl.Repair.rl_total_pins <= n))
    r.Repair.rounds;
  (* every failing round makes progress: new pins are nonempty and
     disjoint from everything pinned before *)
  let seen = ref [] in
  List.iter
    (fun rl ->
      if rl.Repair.rl_counterexample <> None then begin
        Alcotest.(check bool)
          "failing round adds at least one pin" true
          (rl.Repair.rl_new_pins <> []);
        Alcotest.(check bool)
          "new pins were not already pinned" true
          (List.for_all
             (fun u -> not (List.mem u !seen))
             rl.Repair.rl_new_pins);
        seen := rl.Repair.rl_new_pins @ !seen
      end)
    r.Repair.rounds;
  Alcotest.(check int) "final pin set is the union of the rounds"
    (List.length !seen)
    (List.length r.Repair.pins);
  Alcotest.(check bool) "pin set within the node set" true
    (List.for_all (fun u -> u >= 0 && u < n) r.Repair.pins)

(* --- graceful degradation ---------------------------------------------- *)

let test_budget_fallback_is_identity () =
  let net = fattree4 () in
  let ec = first_ec net in
  let r = Repair.harden_exn ~k:1 ~budget:(Budget.create ~max_ticks:5 ()) net ec in
  (match r.Repair.fallback with
  | Bonsai_api.Budget_fallback _ -> ()
  | _ -> Alcotest.fail "expected Budget_fallback");
  Alcotest.(check bool) "fallback is sound" true r.Repair.sound;
  Alcotest.(check bool) "flagged degraded" true
    r.Repair.result.Bonsai_api.degraded;
  let t = r.Repair.result.Bonsai_api.abstraction in
  Alcotest.(check bool) "identity abstraction" true (Abstraction.is_identity t);
  let rn, re = Repair.ratio r in
  Alcotest.(check (float 1e-9)) "node ratio 1.0" 1.0 rn;
  Alcotest.(check (float 1e-9)) "link ratio 1.0" 1.0 re

let test_rounds_zero_diagnoses () =
  (* repair disabled: the sweep reports the break and keeps the (unsound)
     abstraction for diagnosis — the only way [sound = false] escapes *)
  let net = fattree4 () in
  let ec = first_ec net in
  let r = Repair.harden_exn ~k:1 ~rounds:0 net ec in
  Alcotest.(check bool) "unsound" false r.Repair.sound;
  Alcotest.(check bool) "no fallback (diagnosis mode)" true
    (r.Repair.fallback = Bonsai_api.No_fallback);
  Alcotest.(check bool) "pins untouched" true (r.Repair.pins = []);
  Alcotest.(check int) "one sweep logged" 1 (List.length r.Repair.rounds);
  let rl = List.hd r.Repair.rounds in
  Alcotest.(check bool) "counterexample reported" true
    (rl.Repair.rl_counterexample <> None);
  (* the counterexample is 1-minimal: k=1 scenarios already are *)
  (match rl.Repair.rl_counterexample with
  | Some sc -> Alcotest.(check int) "minimal" 1 (Scenario.size sc)
  | None -> ())

let check_k_refused net ec k =
  match Repair.harden ~k net ec with
  | Error (Bonsai_error.Compile_error m) ->
    Alcotest.(check string) "message" "Repair.harden: k must be positive" m
  | _ -> Alcotest.failf "k=%d accepted" k

let test_k_zero_refused () =
  (* k = 0 plans no scenario: a sweep of nothing would report "sound" *)
  let net = fattree4 () in
  check_k_refused net (first_ec net) 0

let test_invalid_args () =
  let net = fattree4 () in
  let ec = first_ec net in
  check_k_refused net ec (-1);
  (match Repair.harden ~rounds:(-1) net ec with
  | Error (Bonsai_error.Compile_error _) -> ()
  | _ -> Alcotest.fail "negative rounds must be a Compile_error");
  (* a sample count below 1 would sweep no scenario and report "sound",
     whether the space is enumerated (fattree:4 at k=1, 32 scenarios) or
     sampled (a 50-ring at k=2, 1,275 scenarios, past the exhaustive
     cap) *)
  let ring50 = Synthesis.ring_bgp ~n:50 in
  List.iter
    (fun (net, k, samples) ->
      match Repair.harden ~k ~samples net (first_ec net) with
      | Error (Bonsai_error.Compile_error m) ->
        Alcotest.(check string)
          "message" "Repair.harden: samples must be positive" m
      | _ -> Alcotest.failf "k=%d samples=%d accepted" k samples)
    [ (net, 1, 0); (net, 1, -3); (ring50, 2, 0); (ring50, 2, -3) ]

(* --- properties --------------------------------------------------------- *)

(* Hardened output is fault-sound on the swept space, whatever the
   topology: rings (redundant — plain compression is typically unsound
   under k=1) and random graphs of mixed redundancy. *)
let qcheck_hardened_is_sound =
  QCheck.Test.make ~name:"harden: first_break = None on the swept space"
    ~count:8
    QCheck.(pair (int_range 4 8) (int_range 0 99))
    (fun (n, seed) ->
      let net =
        if seed mod 2 = 0 then Synthesis.ring_bgp ~n
        else Synthesis.random_network ~n ~seed
      in
      let ec = first_ec net in
      let r = Repair.harden_exn ~k:1 net ec in
      r.Repair.sound
      && recheck net ec r.Repair.result.Bonsai_api.abstraction ~k:1 = None)

let qcheck_pins_bounded =
  QCheck.Test.make ~name:"harden: pins grow monotonically, never past n"
    ~count:8
    QCheck.(int_range 4 8)
    (fun n ->
      let net = Synthesis.ring_bgp ~n in
      let r = Repair.harden_exn ~k:1 net (first_ec net) in
      let totals =
        List.map (fun rl -> rl.Repair.rl_total_pins) r.Repair.rounds
      in
      let rec increasing = function
        | a :: (b :: _ as rest) -> a <= b && increasing rest
        | _ -> true
      in
      increasing totals
      && List.for_all (fun t -> t <= n) totals
      && List.length r.Repair.pins <= n)

let () =
  Alcotest.run "repair"
    [
      ( "fattree",
        [
          Alcotest.test_case "repaired and fault-sound" `Quick
            test_fattree_repaired;
          Alcotest.test_case "round log shape" `Quick test_round_log_shape;
        ] );
      ( "termination",
        [
          Alcotest.test_case "pins monotone and bounded" `Quick
            test_pins_monotone;
          QCheck_alcotest.to_alcotest qcheck_pins_bounded;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "budget fallback is the identity" `Quick
            test_budget_fallback_is_identity;
          Alcotest.test_case "rounds=0 diagnoses" `Quick
            test_rounds_zero_diagnoses;
          Alcotest.test_case "k=0 is refused" `Quick test_k_zero_refused;
          Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest qcheck_hardened_is_sound ]);
    ]
