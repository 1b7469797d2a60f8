(* What compression does NOT preserve (paper §4.5 / §9).

   Effective abstractions reduce the number of paths and neighbors — that
   is the point — so fault-tolerance properties are lost: a single link
   failure can partition the abstract network while the concrete network
   routes around it. The fault-injection engine (lib/faults) makes the
   caveat operational: it enumerates failure scenarios, re-solves both
   networks per scenario, and reports the *minimal* failure set under
   which the abstraction stops being sound.

   Run with: dune exec examples/fault_tolerance.exe *)

let () =
  let ft = Generators.fattree ~k:4 in
  let g = ft.Generators.ft_graph in
  let net = Synthesis.fattree_shortest_path ft in
  let ec = List.hd (Ecs.compute net) in
  let dest = Ecs.single_origin ec in
  let t = (Bonsai_api.compress_ec_exn net ec).Bonsai_api.abstraction in
  Format.printf "fattree k=4: %d nodes -> %d abstract nodes@.@."
    (Graph.n_nodes g) (Abstraction.n_abstract t);

  (* 1. Quantify over single-link failures of the concrete network. *)
  let srp = Compile.bgp_srp net ~dest ~dest_prefix:ec.Ecs.ec_prefix in
  let plan = Fault_engine.plan ~k:1 g in
  let report = Fault_engine.survey srp plan in
  Format.printf
    "concrete network, all %d single-link failures: %d stable & reachable, \
     %d disconnected, %d diverged@."
    (List.length plan.Fault_engine.scenarios)
    report.Fault_engine.n_stable report.Fault_engine.n_disconnected
    report.Fault_engine.n_diverged;

  (* 2. The same quantifier phrased as a property check: reachability
     holds under every single failure, and the engine shrinks any
     counterexample before reporting it. *)
  (match
     Robust.for_all_failures ~k:1 srp (fun sol ->
         List.init (Graph.n_nodes g) Fun.id
         |> List.for_all (fun u -> u = dest || Solution.reaches sol u))
   with
  | Robust.Fault_holds { scenarios; _ } ->
    Format.printf "  reachability survives every scenario (%d checked)@.@."
      scenarios
  | Robust.Fault_fails (sc, _) ->
    Format.printf "  minimal failure set breaking reachability: %a@.@."
      (Scenario.pp ~names:(Graph.name g))
      sc
  | Robust.Fault_diverges (sc, _) ->
    Format.printf "  minimal failure set breaking convergence: %a@.@."
      (Scenario.pp ~names:(Graph.name g))
      sc);

  (* 3. Ask where the abstraction itself stops telling the truth: map
     each scenario through f, re-solve both sides, compare verdicts. *)
  (match
     (Soundness.sweep t ~concrete:srp ~abstract_:(Abstraction.bgp_srp t) plan)
       .Fault_engine.failure
   with
  | None -> Format.printf "abstraction agrees on every scenario@."
  | Some (sc, (m, _)) ->
    Format.printf "abstraction breaks under the single failure %a:@."
      (Scenario.pp ~names:(Graph.name g))
      sc;
    Format.printf
      "  %s still reaches the destination, its abstract image %s does not@.@."
      (Graph.name g m.Soundness.mis_node)
      (Graph.name t.Abstraction.abs_graph m.Soundness.mis_abs));

  Format.printf
    "The concrete fattree routes around any single failure; the 6-node@.";
  Format.printf
    "abstraction is partitioned by one. Compression preserves path@.";
  Format.printf
    "properties of the working network, not fault tolerance (paper §4.5).@.";
  Format.printf
    "To trust a property under failures, re-check it per scenario:@.";
  Format.printf "  bonsai faults fattree:4 --k 1@."
