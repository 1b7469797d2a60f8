type 'a result =
  | Holds
  | Fails of 'a Solution.t
  | Sampled_holds of int

let solutions ?(max_nodes = 12) ?(tries = 16) (srp : 'a Srp.t) =
  if Graph.n_nodes srp.Srp.graph <= max_nodes then
    (`Exhaustive, Solver.enumerate_solutions ~max_nodes srp)
  else (`Sampled, Solver.solutions_sample ~tries srp)

let for_all_solutions ?max_nodes ?tries srp prop =
  let kind, sols = solutions ?max_nodes ?tries srp in
  match List.find_opt (fun s -> not (prop s)) sols with
  | Some cex -> Fails cex
  | None -> (
    match kind with
    | `Exhaustive -> Holds
    | `Sampled -> Sampled_holds (List.length sols))

let exists_solution ?max_nodes ?tries srp prop =
  let _, sols = solutions ?max_nodes ?tries srp in
  List.find_opt prop sols

(* --- quantifying over failure scenarios ------------------------------ *)

type 'a fault_result =
  | Fault_holds of { scenarios : int; exhaustive : bool }
  | Fault_fails of Scenario.t * 'a Solution.t
  | Fault_diverges of Scenario.t * 'a Solver.diagnosis

let scenario_violates srp prop sc =
  match Fault_engine.run srp sc with
  | Fault_engine.Stable sol | Fault_engine.Disconnected (sol, _) ->
    if prop sol then None else Some (`Fails sol)
  | Fault_engine.Diverged d -> Some (`Diverged d)

let for_all_failures ?(k = 1) (srp : 'a Srp.t) prop =
  let plan = Fault_engine.plan ~k srp.Srp.graph in
  match (Fault_engine.search (scenario_violates srp prop) plan).failure with
  | None ->
    Fault_holds
      {
        scenarios = List.length plan.Fault_engine.scenarios;
        exhaustive = plan.Fault_engine.exhaustive;
      }
  | Some (sc, `Fails sol) -> Fault_fails (sc, sol)
  | Some (sc, `Diverged d) -> Fault_diverges (sc, d)
