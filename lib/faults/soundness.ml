type mismatch = {
  mis_node : int;
  mis_abs : int;
  concrete_reaches : bool;
  abstract_reaches : bool;
  concrete_stable : bool;
  abstract_stable : bool;
}

let abstract_scenario (t : Abstraction.t) sc =
  Scenario.make
    ~nodes:(List.concat_map (Abstraction.node_image t) sc.Scenario.down_nodes)
    (List.concat_map (Abstraction.link_image t) sc.Scenario.down_links)

(* reachability vector of a re-solved SRP; divergence reaches nothing *)
let solve_reaches ~budget ?cache (srp : 'a Srp.t) sc =
  match Fault_engine.run ~budget ?cache srp sc with
  | Fault_engine.Stable sol | Fault_engine.Disconnected (sol, _) ->
    (true, Solution.reaches sol)
  | Fault_engine.Diverged _ -> (false, fun u -> u = srp.Srp.dest)

let sweep ?(budget = Budget.infinite) ?concrete_cache ?abstract_cache ?phase
    (t : Abstraction.t) ~(concrete : 'a Srp.t) ~(abstract_ : 'b Srp.t) plan =
  let mismatches sc =
    let concrete_stable, c_reaches =
      solve_reaches ~budget ?cache:concrete_cache concrete sc
    in
    let abstract_stable, a_reaches =
      solve_reaches ~budget ?cache:abstract_cache abstract_
        (abstract_scenario t sc)
    in
    let mismatch u =
      if Scenario.mem_node sc u then None
      else
        let rc = c_reaches u in
        (* any copy agreeing keeps the abstraction defensible: the
           per-solution refinement f_r is free to pick that copy *)
        if List.exists (fun a -> a_reaches a = rc) (Abstraction.node_image t u)
        then None
        else
          Some
            {
              mis_node = u;
              mis_abs = Abstraction.f t u;
              concrete_reaches = rc;
              abstract_reaches = a_reaches (Abstraction.f t u);
              concrete_stable;
              abstract_stable;
            }
    in
    match
      List.filter_map mismatch
        (List.init (Graph.n_nodes concrete.Srp.graph) Fun.id)
    with
    | [] -> None
    | m :: ms -> Some (m, ms)
  in
  Fault_engine.search ~budget ?phase mismatches plan

type report = {
  net : Device.network;
  ec : Ecs.ec;
  k : int;
  abstraction : Abstraction.t;
  plan : Fault_engine.plan;
  n_stable : int;
  n_skipped : int;
  time_s : float;
  disconnected : (Scenario.t * int list) list;
  diverged : (Scenario.t * Solver.verdict) list;
  sweep : (mismatch * mismatch list) Fault_engine.search;
  cache_hits : int;
}

let run ~budget ~samples ~seed ~k ~abstraction (net : Device.network) ec =
  if k < 1 then
    Bonsai_error.error
      (Bonsai_error.Compile_error "Soundness.run: k must be positive");
  if Option.fold ~none:false ~some:(fun s -> s < 1) samples then
    Bonsai_error.error
      (Bonsai_error.Compile_error "Soundness.run: samples must be positive");
  let (Compile.Model m) = Compile.model net in
  let srp =
    Compile.srp m net ~dest:(Ecs.single_origin ec)
      ~dest_prefix:ec.Ecs.ec_prefix
  in
  let sampling = Option.map (fun n -> Fault_engine.Sample n) samples in
  let plan = Fault_engine.plan ?sampling ~seed ~k net.Device.graph in
  (* One concrete-side cache spans the survey and the soundness sweep:
     the soundness check re-solves the same scenarios the survey just
     solved (and shrinking probes sub-scenarios), so sharing avoids the
     double work. *)
  let cache = Fault_engine.cache () in
  let survey = Fault_engine.survey ~budget ~cache srp plan in
  let sweep =
    sweep ~budget ~concrete_cache:cache abstraction ~concrete:srp
      ~abstract_:(Abstraction.srp m abstraction) plan
  in
  let outcomes = survey.Fault_engine.outcomes in
  {
    net;
    ec;
    k;
    abstraction;
    plan;
    n_stable = survey.Fault_engine.n_stable;
    n_skipped = survey.Fault_engine.n_skipped;
    time_s = survey.Fault_engine.time_s;
    disconnected =
      List.filter_map
        (function
          | sc, Fault_engine.Disconnected (_, stranded) -> Some (sc, stranded)
          | _ -> None)
        outcomes;
    diverged =
      List.filter_map
        (function
          | sc, Fault_engine.Diverged d -> Some (sc, d.Solver.diag_verdict)
          | _ -> None)
        outcomes;
    sweep;
    cache_hits = Fault_engine.cache_hits cache;
  }

let report_json_fields r =
  let g = r.net.Device.graph in
  let name = Graph.name g in
  let names us = Json.List (List.map (fun u -> Json.String (name u)) us) in
  let scenario = Scenario.to_json ~names:name in
  let plan = r.plan in
  let mode = if plan.Fault_engine.exhaustive then "exhaustive" else "sampled" in
  let verdict = function
    | Solver.Oscillation { period; participants } ->
      [
        ("verdict", Json.String "oscillation");
        ("period", Json.Int period);
        ("participants", names participants);
      ]
    | Solver.Likely_convergent ->
      [ ("verdict", Json.String "likely-convergent") ]
    | Solver.Inconclusive rounds ->
      [ ("verdict", Json.String "inconclusive"); ("rounds", Json.Int rounds) ]
  in
  let soundness =
    match r.sweep with
    | { Fault_engine.failure = None; cut = Some _; checked } ->
      [ ("checked", Json.Int checked); ("sound", Json.Null) ]
    | { Fault_engine.failure = None; cut = None; _ } ->
      [ ("sound", Json.Bool true) ]
    | { Fault_engine.failure = Some (sc, (m, _)); cut; _ } ->
      let abs_name = Graph.name r.abstraction.Abstraction.abs_graph in
      (* a shrink the budget cut short leaves the scenario as found *)
      let key = if Option.is_none cut then "minimal_scenario" else "scenario" in
      [
        ("sound", Json.Bool false);
        (key, scenario sc);
        ("node", Json.String (name m.mis_node));
        ("abs_node", Json.String (abs_name m.mis_abs));
        ("concrete_reaches", Json.Bool m.concrete_reaches);
        ("abstract_reaches", Json.Bool m.abstract_reaches);
      ]
  in
  let row sc fields = Json.Obj (("scenario", scenario sc) :: fields) in
  [
    ("destination", Json.String (Prefix.to_string r.ec.Ecs.ec_prefix));
    ("nodes", Json.Int (Graph.n_nodes g));
    ("links", Json.Int (Graph.n_links g));
    ("k", Json.Int r.k);
    ("mode", Json.String mode);
    ("scenarios", Json.Int (List.length plan.Fault_engine.scenarios));
    ("stable", Json.Int r.n_stable);
  ]
  @ (if r.n_skipped > 0 then [ ("skipped", Json.Int r.n_skipped) ]
     else [])
  @ [
      ( "disconnected",
        Json.List
          (List.map
             (fun (sc, us) -> row sc [ ("stranded", names us) ])
             r.disconnected) );
      ( "diverged",
        Json.List (List.map (fun (sc, d) -> row sc (verdict d)) r.diverged) );
      ( "abstraction",
        Json.Obj
          (("nodes", Json.Int (Abstraction.n_abstract r.abstraction))
          :: soundness) );
    ]
