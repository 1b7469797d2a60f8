type round_log = {
  rl_round : int;
  rl_abs_nodes : int;
  rl_abs_links : int;
  rl_scenarios : int;
  rl_counterexample : Scenario.t option;
  rl_mismatches : Soundness.mismatch list;
  rl_new_pins : int list;
  rl_total_pins : int;
}

type t = {
  result : Bonsai_api.ec_result;
  rounds : round_log list;
  pins : int list;
  n_scenarios : int;
  n_counterexamples : int;
  cache_hits : int;
  fallback : Bonsai_api.fallback;
  sound : bool;
  plan_exhaustive : bool;
  k : int;
}

let harden_exn ?(k = 1) ?(rounds = 8) ?(samples = 64) ?(seed = 0)
    ?(budget = Budget.infinite) (net : Device.network) (ec : Ecs.ec) =
  if k < 1 then invalid_arg "Repair.harden: k must be positive";
  if rounds < 0 then invalid_arg "Repair.harden: negative rounds";
  if samples < 1 then invalid_arg "Repair.harden: samples must be positive";
  let g = net.Device.graph in
  let n = Graph.n_nodes g in
  let dest = Ecs.single_origin ec in
  let (Compile.Model m) = Compile.model net in
  let concrete = Compile.srp m net ~dest ~dest_prefix:ec.Ecs.ec_prefix in
  let concrete_cache = Fault_engine.cache () in
  (* Past the planner's exhaustive cap an importance sample that doubles
     each round. A widened sample with the same seed extends the previous
     one, so scenarios cleared in round r stay covered in round r+1. *)
  let plan round =
    Fault_engine.plan ~seed ~k g
      ~sampling:(Past_cap (samples * (1 lsl min 20 (round - 1))))
  in
  let plan_exhaustive = (plan 1).Fault_engine.exhaustive in
  let pins = ref [] in
  let logs = ref [] in
  let n_scen = ref 0 in
  let n_cex = ref 0 in
  let abs_hits = ref 0 in
  let finish result fallback sound =
    {
      result;
      rounds = List.rev !logs;
      pins = !pins;
      n_scenarios = !n_scen;
      n_counterexamples = !n_cex;
      cache_hits = Fault_engine.cache_hits concrete_cache + !abs_hits;
      fallback;
      sound;
      plan_exhaustive;
      k;
    }
  in
  (* the identity abstraction is sound by construction *)
  let fallback why = finish (Bonsai_api.identity_result net ec) why true in
  let rec round_loop round (r : Bonsai_api.ec_result) =
    let t = r.Bonsai_api.abstraction in
    let abstract_ = Abstraction.srp m t in
    (* the abstract network changes with every repair, so its cache
       lives for one round only *)
    let abstract_cache = Fault_engine.cache () in
    let plan = plan round in
    let sweep =
      Soundness.sweep ~budget ~concrete_cache ~abstract_cache ~phase:"harden"
        t ~concrete ~abstract_ plan
    in
    n_scen := !n_scen + sweep.Fault_engine.checked;
    let log cex mismatches new_pins =
      abs_hits := !abs_hits + Fault_engine.cache_hits abstract_cache;
      logs :=
        {
          rl_round = round;
          rl_abs_nodes = Abstraction.n_abstract t;
          rl_abs_links = Graph.n_links t.Abstraction.abs_graph;
          rl_scenarios = sweep.Fault_engine.checked;
          rl_counterexample = cex;
          rl_mismatches = mismatches;
          rl_new_pins = new_pins;
          rl_total_pins = List.length !pins;
        }
        :: !logs
    in
    match sweep with
    | { Fault_engine.cut = Some info; _ } ->
      fallback (Bonsai_api.Budget_fallback info)
    | { Fault_engine.failure = None; _ } ->
      log None [] [];
      finish r Bonsai_api.No_fallback true
    | { Fault_engine.failure = Some (minimal, (m, ms)); _ } ->
      let mismatches = m :: ms in
      incr n_cex;
      if round > rounds then begin
        (* No repair attempts left. [rounds = 0] means repair was never
           enabled: report the counterexample and the (unsound)
           abstraction as diagnosis. Otherwise the retry budget is
           exhausted: degrade to the always-sound identity. *)
        log (Some minimal) mismatches [];
        if rounds = 0 then finish r Bonsai_api.No_fallback false
        else fallback Bonsai_api.Rounds_fallback
      end
      else begin
        let unpinned us =
          List.sort_uniq Int.compare us
          |> List.filter (fun u -> not (List.mem u !pins))
        in
        (* Pin every disagreeing node. If all of them are already pinned
           (the break sits elsewhere in the topology), widen to the full
           membership of the mismatching groups; as a last resort pin
           everything — the next round is then the identity abstraction,
           keeping the loop monotone and terminating. *)
        let fresh =
          match
            unpinned (List.map (fun m -> m.Soundness.mis_node) mismatches)
          with
          | _ :: _ as f -> f
          | [] -> (
            match
              unpinned
                (List.concat_map
                   (fun (m : Soundness.mismatch) ->
                     Abstraction.members_of_abs t m.Soundness.mis_abs)
                   mismatches)
            with
            | _ :: _ as f -> f
            | [] -> unpinned (List.init n Fun.id))
        in
        pins := List.sort_uniq Int.compare (List.rev_append fresh !pins);
        log (Some minimal) mismatches fresh;
        if fresh = [] then
          (* every node pinned and still breaking: defensive fallback
             (the identity abstraction cannot mismatch) *)
          fallback Bonsai_api.Rounds_fallback
        else
          round_loop (round + 1)
            (Bonsai_api.compress_ec_exn ~pinned:!pins ~budget net ec)
      end
  in
  try round_loop 1 (Bonsai_api.compress_ec_exn ~budget net ec)
  with Budget.Exhausted info ->
    fallback (Bonsai_api.Budget_fallback info)

let harden ?k ?rounds ?samples ?seed ?budget net ec =
  Bonsai_error.protect (fun () ->
      try harden_exn ?k ?rounds ?samples ?seed ?budget net ec
      with Invalid_argument m ->
        Bonsai_error.error (Bonsai_error.Compile_error m))

let ratio (r : t) = Abstraction.compression_ratio r.result.Bonsai_api.abstraction

let json_fields (net : Device.network) r =
  let g = net.Device.graph in
  let name = Graph.name g in
  let names us = Json.List (List.map (fun u -> Json.String (name u)) us) in
  let t = r.result.Bonsai_api.abstraction in
  let rn, re = ratio r in
  let round_json rl =
    Json.Obj
      ([
         ("round", Json.Int rl.rl_round);
         ("abs_nodes", Json.Int rl.rl_abs_nodes);
         ("abs_links", Json.Int rl.rl_abs_links);
         ("scenarios", Json.Int rl.rl_scenarios);
       ]
      @ (match rl.rl_counterexample with
        | None -> []
        | Some sc ->
          [
            ("counterexample", Scenario.to_json ~names:name sc);
            ("mismatches", Json.Int (List.length rl.rl_mismatches));
          ])
      @ [
          ("new_pins", names rl.rl_new_pins);
          ("total_pins", Json.Int rl.rl_total_pins);
        ])
  in
  (* the ratios keep the two decimals the text report shows *)
  let hundredths x = Json.Float (Float.round (x *. 100.) /. 100.) in
  [
    ( "destination",
      Json.String (Prefix.to_string r.result.Bonsai_api.ec.Ecs.ec_prefix) );
    ("nodes", Json.Int (Graph.n_nodes g));
    ("links", Json.Int (Graph.n_links g));
    ("k", Json.Int r.k);
    ( "mode",
      Json.String (if r.plan_exhaustive then "exhaustive" else "sampled") );
    ("rounds", Json.List (List.map round_json r.rounds));
    ("pins", names r.pins);
    ("counterexamples", Json.Int r.n_counterexamples);
    ("scenario_checks", Json.Int r.n_scenarios);
    ("cache_hits", Json.Int r.cache_hits);
    ("sound", Json.Bool r.sound);
    ("fallback", Json.String (Bonsai_api.fallback_to_string r.fallback));
    ( "abstraction",
      Json.Obj
        [
          ("nodes", Json.Int (Abstraction.n_abstract t));
          ("links", Json.Int (Graph.n_links t.Abstraction.abs_graph));
          ("ratio_nodes", hundredths rn);
          ("ratio_links", hundredths re);
        ] );
  ]
