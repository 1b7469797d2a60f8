(** All-pairs reachability verification — the analysis client whose runtime
    Bonsai accelerates (paper §8, Figure 12 and the Batfish query).

    The engine plays the role of Batfish/Minesweeper: for every destination
    equivalence class it simulates the control plane to a stable solution
    and checks which sources reach the destination. Run on the concrete
    network, its cost grows with network size; run on Bonsai's compressed
    networks (one per class, compression time included), it answers the
    same queries — CP-equivalence guarantees the per-pair verdicts
    coincide. Every class is solved under the network's own routing model
    ({!Compile.model}), on both sides. *)

type result = {
  pairs : int;  (** (source, class) pairs checked *)
  unreachable : int;  (** pairs where some/all paths fail *)
  ecs_done : int;
  time_s : float;  (** total wall-clock, including compression if any *)
  compress_time_s : float;  (** abstract runs only *)
  timed_out : bool;
}

val concrete_all_pairs : ?timeout_s:float -> Device.network -> result

val abstract_all_pairs : ?timeout_s:float -> Device.network -> result
(** Compress each class first (time included), then verify on the abstract
    network. The [pairs] counted are abstract pairs — one per abstract
    node, i.e. one per role, which is exactly the saving. *)

val concrete_query : Device.network -> src:int -> ec:Ecs.ec -> bool
(** Single reachability query (the paper's Batfish experiment). *)

val abstract_query : Device.network -> src:int -> ec:Ecs.ec -> bool
(** The same query answered by compressing the class and asking about
    [f src] in the abstract network. *)

type flows = {
  sources_reaching : int;  (** sources with a forwarding path to the dest *)
  total_paths : int;  (** forwarding paths enumerated across all sources *)
  flow_time_s : float;
}

val concrete_flows : Device.network -> ec:Ecs.ec -> flows
(** The paper's Batfish/NoD experiment: compute {e all} forwarding paths
    from every source towards the destination class (multipath fattrees
    make this blow up combinatorially on the concrete network). *)

val abstract_flows : Device.network -> ec:Ecs.ec -> flows
(** Same analysis after compressing the class (compression time included);
    [sources_reaching] counts abstract sources. *)
