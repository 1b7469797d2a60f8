type protocol = [ `Bgp | `Multi ]

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

let concrete_solution ?(protocol = `Bgp) (net : Device.network) ec =
  let dest = Ecs.single_origin ec in
  match protocol with
  | `Bgp ->
    let srp = Compile.bgp_srp net ~dest ~dest_prefix:ec.Ecs.ec_prefix in
    let sol = solve_or_fail srp in
    `Bgp_sol sol
  | `Multi ->
    let srp = Compile.multi_srp net ~dest ~dest_prefix:ec.Ecs.ec_prefix in
    let sol = solve_or_fail srp in
    `Multi_sol sol

let concrete_all_pairs ?timeout_s ?protocol net =
  run_ecs ?timeout_s net (fun ec ->
      let p, u =
        match concrete_solution ?protocol net ec with
        | `Bgp_sol sol -> check_pairs sol
        | `Multi_sol sol -> check_pairs sol
      in
      (p, u, 0.0))

let abstract_solution ?(protocol = `Bgp) ~universe (net : Device.network) ec =
  let r = Bonsai_api.compress_ec_exn ~universe net ec in
  let t = r.Bonsai_api.abstraction in
  match protocol with
  | `Bgp -> (r, `Bgp_sol (solve_or_fail (Abstraction.bgp_srp t)))
  | `Multi -> (r, `Multi_sol (solve_or_fail (Abstraction.multi_srp t)))

let abstract_all_pairs ?timeout_s ?protocol (net : Device.network) =
  let universe, u_time =
    Timing.time (fun () -> Policy_bdd.universe_of_network net)
  in
  let first = ref true in
  run_ecs ?timeout_s net (fun ec ->
      let (r, sol), t =
        Timing.time (fun () -> abstract_solution ?protocol ~universe net ec)
      in
      let p, u =
        match sol with
        | `Bgp_sol sol -> check_pairs sol
        | `Multi_sol sol -> check_pairs sol
      in
      let ct =
        r.Bonsai_api.time_s +. (if !first then u_time else 0.0)
      in
      first := false;
      ignore t;
      (p, u, ct))

let concrete_query ?protocol net ~src ~ec =
  match concrete_solution ?protocol net ec with
  | `Bgp_sol sol -> Properties.reachable sol src
  | `Multi_sol sol -> Properties.reachable sol src

let abstract_query ?protocol net ~src ~ec =
  let universe = Policy_bdd.universe_of_network net in
  let r, sol = abstract_solution ?protocol ~universe net ec in
  let asrc = Abstraction.f r.Bonsai_api.abstraction src in
  match sol with
  | `Bgp_sol sol -> Properties.reachable sol asrc
  | `Multi_sol sol -> Properties.reachable sol asrc

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

let concrete_flows ?protocol net ~ec =
  let t0 = Timing.now () in
  match concrete_solution ?protocol net ec with
  | `Bgp_sol sol -> flows_of_solution sol t0
  | `Multi_sol sol -> flows_of_solution sol t0

let abstract_flows ?protocol net ~ec =
  let t0 = Timing.now () in
  let universe = Policy_bdd.universe_of_network net in
  let _, sol = abstract_solution ?protocol ~universe net ec in
  match sol with
  | `Bgp_sol sol -> flows_of_solution sol t0
  | `Multi_sol sol -> flows_of_solution sol t0
