type result = {
  pairs : int;
  unreachable : int;
  ecs_done : int;
  time_s : float;
  compress_time_s : float;
  timed_out : bool;
}

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
      else if Ecs.is_single_origin ec then begin
        let p, u, ct = per_ec ec in
        pairs := !pairs + p;
        unreachable := !unreachable + u;
        compress_time := !compress_time +. ct;
        incr ecs_done
      end)
    (Ecs.compute net);
  {
    pairs = !pairs;
    unreachable = !unreachable;
    ecs_done = !ecs_done;
    time_s = Timing.now () -. t0;
    compress_time_s = !compress_time;
    timed_out = !timed_out;
  }

(* A class FIB as a forwarding relation over routers [0 .. n-1]. A
   class whose control plane diverges has no FIB: every walk drops at
   its source, so no source reaches. *)
let relation ~n = function
  | `Compiled cf -> Dataplane.class_lookup ~n cf
  | `Unsolved -> fun _ -> []

let verdicts ~n ~dest fib =
  let outcome = Forwarding.outcomes ~n ~lookup:(relation ~n fib) ~dest in
  fun u -> Forwarding.reaches (outcome u)

let concrete_fib (net : Device.network) ec =
  let (Compile.Model m) = Compile.model net in
  match Dataplane.compile_ec m net ec with
  | (`Compiled _ | `Unsolved) as fib -> fib
  | `Anycast -> Bonsai_api.refuse_anycast ec

let abstract_fib ?universe (net : Device.network) ec =
  let (Compile.Model m) = Compile.model net in
  let r = Bonsai_api.compress_ec_exn ?universe net ec in
  (r, Dataplane.compile_abstract m r.Bonsai_api.abstraction)

(* (pairs, unreachable) over every source but the destination *)
let count_pairs ~n ~dest fib =
  let reaches = verdicts ~n ~dest fib in
  let unreachable = ref 0 in
  for u = 0 to n - 1 do
    if u <> dest && not (reaches u) then incr unreachable
  done;
  (n - 1, !unreachable)

let concrete_all_pairs ?timeout_s (net : Device.network) =
  let n = Graph.n_nodes net.Device.graph in
  run_ecs ?timeout_s net (fun ec ->
      let p, u =
        count_pairs ~n ~dest:(Ecs.single_origin ec) (concrete_fib net ec)
      in
      (p, u, 0.0))

let abstract_all_pairs ?timeout_s (net : Device.network) =
  let universe, u_time =
    Timing.time (fun () -> Policy_bdd.universe_of_network net)
  in
  let first = ref true in
  run_ecs ?timeout_s net (fun ec ->
      let r, fib = abstract_fib ~universe net ec in
      let t = r.Bonsai_api.abstraction in
      let p, u =
        count_pairs ~n:(Abstraction.n_abstract t)
          ~dest:t.Abstraction.abs_dest fib
      in
      let ct = r.Bonsai_api.time_s +. if !first then u_time else 0.0 in
      first := false;
      (p, u, ct))

let concrete_query (net : Device.network) ~src ~ec =
  let fib = concrete_fib net ec in
  verdicts
    ~n:(Graph.n_nodes net.Device.graph)
    ~dest:(Ecs.single_origin ec) fib src

let abstract_query net ~src ~ec =
  let r, fib = abstract_fib net ec in
  let t = r.Bonsai_api.abstraction in
  verdicts ~n:(Abstraction.n_abstract t) ~dest:t.Abstraction.abs_dest fib
    (Abstraction.f t src)

type flows = {
  sources_reaching : int;
  total_paths : int;
  flow_time_s : float;
}

let flows ~n ~dest fib t0 =
  let reaches = verdicts ~n ~dest fib and lookup = relation ~n fib in
  let sources = ref 0 and paths = ref 0 in
  for u = 0 to n - 1 do
    if u <> dest then begin
      if reaches u then incr sources;
      paths :=
        !paths
        + List.length (Forwarding.walk ~all:true ~lookup ~dest:(Some dest) u)
    end
  done;
  {
    sources_reaching = !sources;
    total_paths = !paths;
    flow_time_s = Timing.now () -. t0;
  }

let concrete_flows (net : Device.network) ~ec =
  let t0 = Timing.now () in
  let fib = concrete_fib net ec in
  flows
    ~n:(Graph.n_nodes net.Device.graph)
    ~dest:(Ecs.single_origin ec) fib t0

let abstract_flows net ~ec =
  let t0 = Timing.now () in
  let r, fib = abstract_fib net ec in
  let t = r.Bonsai_api.abstraction in
  flows ~n:(Abstraction.n_abstract t) ~dest:t.Abstraction.abs_dest fib t0
