let reachable = Solution.reaches

(* every forwarding path from [src] that reaches the destination *)
let delivered sol ~src =
  Forwarding.walk ~all:true
    ~lookup:(fun u -> List.map snd (Solution.fwd sol u))
    ~dest:(Some sol.Solution.srp.Srp.dest) src
  |> List.filter_map (function Forwarding.Delivered p -> Some p | _ -> None)

let path_lengths sol ~src =
  List.sort compare
    (List.map (fun p -> List.length p - 1) (delivered sol ~src))

let black_hole sol u = (Solution.outcomes sol u).Forwarding.drops

let has_routing_loop sol =
  let outcome = Solution.outcomes sol in
  List.exists
    (fun u -> (outcome u).Forwarding.loops)
    (List.init (Graph.n_nodes sol.Solution.srp.Srp.graph) Fun.id)

let waypointed sol ~src ~waypoints =
  List.for_all
    (fun p -> List.exists (fun w -> List.mem w p) waypoints)
    (delivered sol ~src)

let multipath_consistent sol ~src =
  let o = Solution.outcomes sol src in
  not (o.Forwarding.delivers && (o.Forwarding.drops || o.Forwarding.loops))
