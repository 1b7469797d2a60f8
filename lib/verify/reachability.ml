type result = {
  pairs : int;
  unreachable : int;
  ecs_done : int;
  time_s : float;
  compress_time_s : float;
  timed_out : bool;
}

let solve_or_fail (type a) (srp : a Srp.t) : a Solution.t =
  match Solver.solve srp with
  | Ok (s, _) -> s
  | Error (`Diverged d) ->
    d.Solver.diag_sol (* judged unstable: all pairs unreachable *)
  | Error (`Budget (_, partial)) ->
    partial (* unstable partial labeling: counts as unreachable *)

let check_pairs (type a) (sol : a Solution.t) =
  let n = Graph.n_nodes sol.Solution.srp.Srp.graph in
  let dest = sol.Solution.srp.Srp.dest in
  let pairs = ref 0 and unreachable = ref 0 in
  for u = 0 to n - 1 do
    if u <> dest then begin
      incr pairs;
      if not (Properties.reachable sol u) then incr unreachable
    end
  done;
  (!pairs, !unreachable)

let run_ecs ?timeout_s (net : Device.network) per_ec =
  let t0 = Timing.now () in
  let deadline = Option.map (fun s -> t0 +. s) timeout_s in
  let pairs = ref 0 and unreachable = ref 0 and ecs_done = ref 0 in
  let compress_time = ref 0.0 in
  let timed_out = ref false in
  List.iter
    (fun ec ->
      let expired =
        match deadline with Some d -> Timing.now () > d | None -> false
      in
      if expired then timed_out := true
      else
        match ec.Ecs.ec_origins with
        | [ _ ] ->
          let p, u, ct = per_ec ec in
          pairs := !pairs + p;
          unreachable := !unreachable + u;
          compress_time := !compress_time +. ct;
          incr ecs_done
        | _ -> ())
    (Ecs.compute net);
  {
    pairs = !pairs;
    unreachable = !unreachable;
    ecs_done = !ecs_done;
    time_s = Timing.now () -. t0;
    compress_time_s = !compress_time;
    timed_out = !timed_out;
  }

let concrete_solution model (net : Device.network) ec =
  solve_or_fail
    (Compile.srp model net ~dest:(Ecs.single_origin ec)
       ~dest_prefix:ec.Ecs.ec_prefix)

let concrete_all_pairs ?timeout_s net =
  let (Compile.Model m) = Compile.model net in
  run_ecs ?timeout_s net (fun ec ->
      let p, u = check_pairs (concrete_solution m net ec) in
      (p, u, 0.0))

let abstract_solution model ~universe (net : Device.network) ec =
  let r = Bonsai_api.compress_ec_exn ~universe net ec in
  (r, solve_or_fail (Abstraction.srp model r.Bonsai_api.abstraction))

let abstract_all_pairs ?timeout_s (net : Device.network) =
  let (Compile.Model m) = Compile.model net in
  let universe, u_time =
    Timing.time (fun () -> Policy_bdd.universe_of_network net)
  in
  let first = ref true in
  run_ecs ?timeout_s net (fun ec ->
      let r, sol = abstract_solution m ~universe net ec in
      let p, u = check_pairs sol in
      let ct = r.Bonsai_api.time_s +. if !first then u_time else 0.0 in
      first := false;
      (p, u, ct))

let concrete_query net ~src ~ec =
  let (Compile.Model m) = Compile.model net in
  Properties.reachable (concrete_solution m net ec) src

let abstract_query net ~src ~ec =
  let (Compile.Model m) = Compile.model net in
  let universe = Policy_bdd.universe_of_network net in
  let r, sol = abstract_solution m ~universe net ec in
  Properties.reachable sol (Abstraction.f r.Bonsai_api.abstraction src)

type flows = {
  sources_reaching : int;
  total_paths : int;
  flow_time_s : float;
}

let flows_of_solution (type a) (sol : a Solution.t) t0 =
  let n = Graph.n_nodes sol.Solution.srp.Srp.graph in
  let dest = sol.Solution.srp.Srp.dest in
  let sources = ref 0 and paths = ref 0 in
  for u = 0 to n - 1 do
    if u <> dest then begin
      if Properties.reachable sol u then incr sources;
      paths :=
        !paths
        + List.length (Solution.forwarding_paths sol ~src:u ~max_len:(n + 1))
    end
  done;
  {
    sources_reaching = !sources;
    total_paths = !paths;
    flow_time_s = Timing.now () -. t0;
  }

let concrete_flows net ~ec =
  let t0 = Timing.now () in
  let (Compile.Model m) = Compile.model net in
  flows_of_solution (concrete_solution m net ec) t0

let abstract_flows net ~ec =
  let t0 = Timing.now () in
  let (Compile.Model m) = Compile.model net in
  let universe = Policy_bdd.universe_of_network net in
  flows_of_solution (snd (abstract_solution m ~universe net ec)) t0
