type t = {
  net : Device.network;
  dest : int;
  dest_prefix : Prefix.t;
  group_of : int array;
  groups : int list array;
  copies : int array;
  abs_of_group : int array;
  group_of_abs : int array;
  abs_graph : Graph.t;
  abs_dest : int;
  universe : Policy_bdd.universe;
}

let f t u = t.abs_of_group.(t.group_of.(u))
let n_abstract t = Graph.n_nodes t.abs_graph
let members_of_abs t a = t.groups.(t.group_of_abs.(a))

let repr_of_abs t a =
  match members_of_abs t a with
  | m :: _ -> m
  | [] -> invalid_arg "Abstraction.repr_of_abs: empty group"

let node_image t u =
  let g = t.group_of.(u) in
  List.init t.copies.(g) (fun i -> t.abs_of_group.(g) + i)

let link_image t (u, v) =
  let gu = t.group_of.(u) and gv = t.group_of.(v) in
  if gu = gv then []
  else
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b -> if Graph.has_edge t.abs_graph a b then Some (a, b) else None)
          (node_image t v))
      (node_image t u)

(* Group-level edge representatives: for every ordered pair of groups
   joined by a concrete edge, the least such edge, found without hashing.
   Walking a group's members in ascending order, and each member's
   successors in ascending order, meets the least edge into every target
   group first; [seen] stamps the target groups met from the current
   source group. The targets of source group [g1] are [target] from
   [first.(g1)] to [first.(g1 + 1)], ascending, and [edge] holds each
   one's edge [(u, v)] as [u * n + v] over the [n] concrete nodes. *)
type edge_reprs = { first : int array; target : int array; edge : int array }

let group_edge_reprs (net : Device.network) groups group_of =
  let g = net.Device.graph in
  let n = Graph.n_nodes g and n_groups = Array.length groups in
  let seen = Array.make n_groups (-1) in
  (* Count the pairs by source and by target group, then bucket them by
     target, each bucket in ascending source order, and deal the buckets
     out to the sources: each source's targets arrive ascending. The two
     walks stamp [seen] with distinct values. *)
  let first = Array.make (n_groups + 1) 0 in
  let bucket = Array.make (n_groups + 1) 0 in
  let rec count g1 = function
    | [] -> ()
    | u :: rest ->
      let vs = Graph.succ g u in
      for i = 0 to Array.length vs - 1 do
        let g2 = group_of.(vs.(i)) in
        if seen.(g2) <> g1 then begin
          seen.(g2) <- g1;
          first.(g1 + 1) <- first.(g1 + 1) + 1;
          bucket.(g2 + 1) <- bucket.(g2 + 1) + 1
        end
      done;
      count g1 rest
  in
  for g1 = 0 to n_groups - 1 do
    count g1 groups.(g1)
  done;
  for k = 1 to n_groups do
    first.(k) <- first.(k) + first.(k - 1);
    bucket.(k) <- bucket.(k) + bucket.(k - 1)
  done;
  let n_pairs = first.(n_groups) in
  let source = Array.make n_pairs 0 and source_edge = Array.make n_pairs 0 in
  let fill = Array.sub bucket 0 n_groups in
  let rec place g1 = function
    | [] -> ()
    | u :: rest ->
      let vs = Graph.succ g u in
      for i = 0 to Array.length vs - 1 do
        let g2 = group_of.(vs.(i)) in
        if seen.(g2) <> n_groups + g1 then begin
          seen.(g2) <- n_groups + g1;
          source.(fill.(g2)) <- g1;
          source_edge.(fill.(g2)) <- (u * n) + vs.(i);
          fill.(g2) <- fill.(g2) + 1
        end
      done;
      place g1 rest
  in
  for g1 = 0 to n_groups - 1 do
    place g1 groups.(g1)
  done;
  let target = Array.make n_pairs 0 and edge = Array.make n_pairs 0 in
  Array.blit first 0 fill 0 n_groups;
  for g2 = 0 to n_groups - 1 do
    for k = bucket.(g2) to bucket.(g2 + 1) - 1 do
      let g1 = source.(k) in
      target.(fill.(g1)) <- g2;
      edge.(fill.(g1)) <- source_edge.(k);
      fill.(g1) <- fill.(g1) + 1
    done
  done;
  { first; target; edge }

let find_repr (net : Device.network) r g1 g2 =
  let rec search lo hi =
    if lo >= hi then raise Not_found
    else
      let mid = (lo + hi) / 2 in
      let g = r.target.(mid) in
      if g = g2 then
        let n = Graph.n_nodes net.Device.graph in
        (r.edge.(mid) / n, r.edge.(mid) mod n)
      else if g < g2 then search (mid + 1) hi
      else search lo mid
  in
  search r.first.(g1) r.first.(g1 + 1)

let rec same_members order i hi = function
  | [] -> i = hi
  | m :: rest -> i < hi && order.(i) = m && same_members order (i + 1) hi rest

let rec find_group order lo hi = function
  | [] -> None
  | e :: rest ->
    if same_members order lo hi e.Compile.members then Some e
    else find_group order lo hi rest

(* Each group's members, ascending, as the network's shared copy from
   [Compile.group_table]: groups recur across the rows of a network, so
   most lookups find the list without building it. Members are sorted by
   group into [order] first (a counting sort); group [g] is the slice
   from [start.(g)] to [start.(g + 1)]. *)
let shared_groups (net : Device.network) group_of n_groups =
  let g = net.Device.graph in
  let start = Array.make (n_groups + 1) 0 in
  Array.iter (fun k -> start.(k + 1) <- start.(k + 1) + 1) group_of;
  for k = 1 to n_groups do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let order = Array.make (Array.length group_of) 0 in
  let fill = Array.sub start 0 n_groups in
  Array.iteri
    (fun u k ->
      order.(fill.(k)) <- u;
      fill.(k) <- fill.(k) + 1)
    group_of;
  let table = Compile.group_table net in
  Array.init n_groups (fun k ->
      let lo = start.(k) and hi = start.(k + 1) in
      if lo = hi then invalid_arg "Abstraction.make: empty group";
      let h = ref (hi - lo) in
      for i = lo to hi - 1 do
        h := ((!h * 31) + order.(i)) land max_int
      done;
      let bucket =
        match Hashtbl.find table !h with b -> b | exception Not_found -> []
      in
      match find_group order lo hi bucket with
      | Some e -> e
      | None ->
        let members = ref [] in
        for i = hi - 1 downto lo do
          members := order.(i) :: !members
        done;
        let name = "~" ^ Graph.name g order.(lo) in
        let label =
          if hi - lo > 1 then name ^ "(" ^ string_of_int (hi - lo) ^ ")"
          else name
        in
        let e = { Compile.members = !members; label } in
        Hashtbl.replace table !h (e :: bucket);
        e)

let make net ~dest ~dest_prefix ~universe ~partition ~copies =
  let group_of = Union_split_find.canonical partition in
  let n_groups = Union_split_find.num_classes partition in
  let shared = shared_groups net group_of n_groups in
  let groups = Array.map (fun e -> e.Compile.members) shared in
  let copies_arr =
    Array.mapi
      (fun g members ->
        if g = group_of.(dest) then 1
        else max 1 (min (copies (List.hd members)) (List.length members)))
      groups
  in
  let abs_of_group = Array.make n_groups 0 in
  let total = ref 0 in
  Array.iteri
    (fun g c ->
      abs_of_group.(g) <- !total;
      total := !total + c)
    copies_arr;
  let n_abs = !total in
  let group_of_abs = Array.make n_abs 0 in
  Array.iteri
    (fun g c ->
      for i = 0 to c - 1 do
        group_of_abs.(abs_of_group.(g) + i) <- g
      done)
    copies_arr;
  let names =
    Array.init n_abs (fun a ->
        let g = group_of_abs.(a) in
        let label = shared.(g).Compile.label in
        if copies_arr.(g) > 1 then
          label ^ "#" ^ string_of_int (a - abs_of_group.(g))
        else label)
  in
  (* Each abstract node's successors are every copy of each group its
     group reaches, ascending, since [target] and [abs_of_group] are.
     Intra-group concrete edges yield no abstract self-loop (see Refine):
     for single-copy groups they are simply omitted; for split groups
     they become edges between distinct copies. *)
  let r = group_edge_reprs net groups group_of in
  let succ =
    Array.init n_abs (fun a1 ->
        let g1 = group_of_abs.(a1) in
        let degree = ref 0 in
        for k = r.first.(g1) to r.first.(g1 + 1) - 1 do
          let g2 = r.target.(k) in
          degree := !degree + copies_arr.(g2) - if g2 = g1 then 1 else 0
        done;
        let out = Array.make !degree 0 and next = ref 0 in
        for k = r.first.(g1) to r.first.(g1 + 1) - 1 do
          let g2 = r.target.(k) in
          for j = 0 to copies_arr.(g2) - 1 do
            let a2 = abs_of_group.(g2) + j in
            if a2 <> a1 then begin
              out.(!next) <- a2;
              incr next
            end
          done
        done;
        out)
  in
  {
    net;
    dest;
    dest_prefix;
    group_of;
    groups;
    copies = copies_arr;
    abs_of_group;
    group_of_abs;
    abs_graph = Graph.of_succ names succ;
    abs_dest = abs_of_group.(group_of.(dest));
    universe;
  }

let identity net ~dest ~dest_prefix ~universe =
  let partition =
    Union_split_find.discrete (Graph.n_nodes net.Device.graph)
  in
  make net ~dest ~dest_prefix ~universe ~partition ~copies:(fun _ -> 1)

(* With every group a singleton and one copy each, nothing in the
   identity abstraction depends on the destination except [dest],
   [dest_prefix] and [abs_dest] — so a degraded run stamping out one
   fallback per destination class can share a single skeleton instead of
   rebuilding the (concrete-sized) abstract graph each time. *)
let identity_family net ~universe =
  let template = ref None in
  fun ~dest ~dest_prefix ->
    let t =
      match !template with
      | Some t -> t
      | None ->
        let t = identity net ~dest ~dest_prefix ~universe in
        template := Some t;
        t
    in
    { t with dest; dest_prefix; abs_dest = t.abs_of_group.(t.group_of.(dest)) }

let is_identity t =
  Array.for_all (function [ _ ] -> true | _ -> false) t.groups

(* Memoized variant used by the abstract SRPs (rebuilding the table per
   edge lookup would be quadratic). *)
let edge_repr_fun t =
  let reprs = group_edge_reprs t.net t.groups t.group_of in
  fun a1 a2 -> find_repr t.net reprs t.group_of_abs.(a1) t.group_of_abs.(a2)

let repr_edge t a1 a2 = edge_repr_fun t a1 a2

let erase_comms t (a : Bgp.attr) =
  let in_universe c =
    Array.exists (fun c' -> c' = c) t.universe.Policy_bdd.comms
  in
  { a with Bgp.comms = List.filter in_universe a.comms }

let h_attr t ~fr (a : Bgp.attr) =
  { (erase_comms t a) with Bgp.path = List.map fr a.path }

(* The abstract policy is the representative concrete policy composed
   with the attribute abstraction h: communities outside the BDD universe
   (set but never matched anywhere) are erased, so abstract attributes are
   exactly the h-images of concrete ones. *)
let abstract_policy t =
  let repr = edge_repr_fun t in
  let concrete = Compile.bgp_policy t.net ~dest:t.dest_prefix in
  fun a1 a2 ->
    let u, v = repr a1 a2 in
    let p = concrete u v in
    fun a -> Option.map (erase_comms t) (p a)

let bgp_srp t =
  let policy = abstract_policy t in
  Bgp.make ~tie_filter:(Compile.matched_comms t.net) ~policy t.abs_graph
    ~dest:t.abs_dest

let multi_srp t =
  let repr = edge_repr_fun t in
  let r = t.net.Device.routers in
  let ospf_link a1 a2 =
    let u, v = repr a1 a2 in
    match
      (Device.ospf_link_config r.(u) v, Device.ospf_link_config r.(v) u)
    with
    | Some l, Some _ -> Some l
    | _ -> None
  in
  let bgp_nb a1 a2 =
    let u, v = repr a1 a2 in
    match
      (Device.bgp_neighbor_config r.(u) v, Device.bgp_neighbor_config r.(v) u)
    with
    | Some nb, Some _ -> Some nb
    | _ -> None
  in
  let statics = ref [] in
  Graph.iter_edges t.abs_graph (fun a1 a2 ->
      let u, v = repr a1 a2 in
      if List.mem v (Device.static_next_hops r.(u) ~dest:t.dest_prefix) then
        statics := (a1, a2) :: !statics);
  Multi.make
    ~ospf_cost:(fun a1 a2 ->
      match ospf_link a1 a2 with Some l -> l.Device.cost | None -> 1)
    ~ospf_area:(fun a -> r.(repr_of_abs t a).Device.ospf_area)
    ~ospf_enabled:(fun a1 a2 -> Option.is_some (ospf_link a1 a2))
    ~bgp_enabled:(fun a1 a2 -> Option.is_some (bgp_nb a1 a2))
    ~ibgp:(fun a1 a2 ->
      match bgp_nb a1 a2 with Some nb -> nb.Device.ibgp | None -> false)
    ~bgp_policy:(abstract_policy t)
    ~static_routes:!statics
    ~redistribute:(fun a -> r.(repr_of_abs t a).Device.redistribute)
    ~bgp_tie_filter:(Compile.matched_comms t.net)
    ~origin_protocols:(Compile.origin_protocols t.net t.dest)
    t.abs_graph ~dest:t.abs_dest

let srp : type a. a Compile.model -> t -> a Srp.t =
 fun m t -> match m with Compile.Bgp -> bgp_srp t | Compile.Multi -> multi_srp t

let compression_ratio t =
  let n = float_of_int (Graph.n_nodes t.net.Device.graph) in
  let e = float_of_int (max 1 (Graph.n_links t.net.Device.graph)) in
  let n' = float_of_int (n_abstract t) in
  let e' = float_of_int (max 1 (Graph.n_links t.abs_graph)) in
  (n /. n', e /. e')

let pp_summary ppf t =
  let rn, re = compression_ratio t in
  Format.fprintf ppf
    "%a: %d/%d nodes, %d/%d links (%.1fx / %.1fx)" Prefix.pp t.dest_prefix
    (Graph.n_nodes t.net.Device.graph)
    (n_abstract t)
    (Graph.n_links t.net.Device.graph)
    (Graph.n_links t.abs_graph)
    rn re
