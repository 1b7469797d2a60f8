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
   source group. The pairs of source group [g1] are [pairs] from
   [first.(g1)] to [first.(g1 + 1)], as [(g2, (u, v))] sorted by [g2]. *)
type edge_reprs = { first : int array; pairs : (int * (int * int)) array }

let group_edge_reprs (net : Device.network) groups group_of =
  let n_groups = Array.length groups in
  let seen = Array.make n_groups (-1) in
  let first = Array.make (n_groups + 1) 0 in
  let segments = Array.make n_groups [||] in
  for g1 = 0 to n_groups - 1 do
    let found = ref [] in
    List.iter
      (fun u ->
        Array.iter
          (fun v ->
            let g2 = group_of.(v) in
            if seen.(g2) <> g1 then begin
              seen.(g2) <- g1;
              found := (g2, (u, v)) :: !found
            end)
          (Graph.succ net.Device.graph u))
      groups.(g1);
    let segment = Array.of_list !found in
    Array.sort (fun (a, _) (b, _) -> Int.compare a b) segment;
    first.(g1 + 1) <- first.(g1) + Array.length segment;
    segments.(g1) <- segment
  done;
  { first; pairs = Array.concat (Array.to_list segments) }

let find_repr r g1 g2 =
  let rec search lo hi =
    if lo >= hi then raise Not_found
    else
      let mid = (lo + hi) / 2 in
      let g, e = r.pairs.(mid) in
      if g = g2 then e else if g < g2 then search (mid + 1) hi else search lo mid
  in
  search r.first.(g1) r.first.(g1 + 1)

let make net ~dest ~dest_prefix ~universe ~partition ~copies =
  let n = Graph.n_nodes net.Device.graph in
  let group_of = Union_split_find.canonical partition in
  let n_groups = Union_split_find.num_classes partition in
  let groups = Array.make n_groups [] and sizes = Array.make n_groups 0 in
  for u = n - 1 downto 0 do
    groups.(group_of.(u)) <- u :: groups.(group_of.(u));
    sizes.(group_of.(u)) <- sizes.(group_of.(u)) + 1
  done;
  let copies_arr =
    Array.init n_groups (fun g ->
        match groups.(g) with
        | [] -> invalid_arg "Abstraction.make: empty group"
        | m :: _ ->
          if g = group_of.(dest) then 1 else max 1 (min (copies m) sizes.(g)))
  in
  (* Intra-group concrete edges yield no abstract self-loop (see
     Refine): for single-copy groups they are simply omitted; for split
     groups they become edges between distinct copies below. *)
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
  let b = Graph.Builder.create () in
  for a = 0 to n_abs - 1 do
    let g = group_of_abs.(a) in
    let name = "~" ^ Graph.name net.Device.graph (List.hd groups.(g)) in
    let size = string_of_int sizes.(g) in
    let copy = string_of_int (a - abs_of_group.(g)) in
    let name =
      if copies_arr.(g) > 1 then name ^ "(" ^ size ^ ")#" ^ copy
      else if sizes.(g) > 1 then name ^ "(" ^ size ^ ")"
      else name
    in
    ignore (Graph.Builder.add_node b name)
  done;
  let reprs = group_edge_reprs net groups group_of in
  for g1 = 0 to n_groups - 1 do
    for k = reprs.first.(g1) to reprs.first.(g1 + 1) - 1 do
      let g2, _ = reprs.pairs.(k) in
      for i = 0 to copies_arr.(g1) - 1 do
        for j = 0 to copies_arr.(g2) - 1 do
          let a1 = abs_of_group.(g1) + i and a2 = abs_of_group.(g2) + j in
          if a1 <> a2 then Graph.Builder.add_edge b a1 a2
        done
      done
    done
  done;
  let abs_graph = Graph.Builder.build b in
  {
    net;
    dest;
    dest_prefix;
    group_of;
    groups;
    copies = copies_arr;
    abs_of_group;
    group_of_abs;
    abs_graph;
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
  fun a1 a2 -> find_repr reprs t.group_of_abs.(a1) t.group_of_abs.(a2)

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
