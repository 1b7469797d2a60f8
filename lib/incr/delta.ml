type dir = Import | Export

type t =
  | Link_up of string * string
  | Link_down of string * string
  | Node_add of string
  | Node_remove of string
  | Ospf_cost of { node : string; nbr : string; cost : int }
  | Ospf_link_set of {
      node : string;
      nbr : string;
      link : Device.ospf_link option;
    }
  | Ospf_area_set of { node : string; area : int }
  | Route_map_set of {
      node : string;
      nbr : string;
      dir : dir;
      rm : Route_map.t option;
    }
  | Bgp_neighbor_set of {
      node : string;
      nbr : string;
      config : Device.bgp_neighbor option;
    }
  | Acl_set of { node : string; nbr : string; acl : Acl.t option }
  | Static_set of { node : string; routes : (Prefix.t * string) list }
  | Originate_set of { node : string; prefixes : Prefix.t list }
  | Redistribute_set of {
      node : string;
      redistribute : Multi.redistribution list;
    }

(* ------------------------------------------------------------------ *)
(* Canonical order. Two networks are semantically equal when, router by
   router (matched by name), their neighbor references agree by name and
   every list agrees up to its canonical order: BGP sessions, OSPF
   interfaces and ACLs by neighbor, static routes by (prefix, next-hop
   name), originated prefixes by prefix, redistribution as a set. [apply]
   emits every router in that order (neighbor lists by node id, which
   follows the node order) and [diff] compares in it. *)

(* Deterministic work units of [diff] and [apply] on this domain. *)
let work_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let work () = !(Domain.DLS.get work_key)

let canon a b = if String.compare a b <= 0 then (a, b) else (b, a)

let compare_link (a1, b1) (a2, b2) =
  match String.compare a1 a2 with 0 -> String.compare b1 b2 | c -> c

let compare_static (p1, n1) (p2, n2) =
  match Prefix.compare p1 p2 with 0 -> String.compare n1 n2 | c -> c

let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l
let by_id l = List.sort (fun (a, _) (b, _) -> Int.compare a b) l
let sort_prefixes = List.sort Prefix.compare
let sort_redist = List.sort_uniq Multi.redistribution_compare

(* [sorted ~strict cmp l]: [l] is already in [cmp] order. *)
let rec sorted ?(strict = false) cmp = function
  | x :: (y :: _ as rest) ->
    let c = cmp x y in
    (c < 0 || (c = 0 && not strict)) && sorted ~strict cmp rest
  | [ _ ] | [] -> true

(* ------------------------------------------------------------------ *)
(* apply *)

(* The network under edit. Routers live in slots: slot [i < n0] is the
   base network's node [i]; later slots are appended by [Node_add], or by
   a reference to a name that no router has (yet), a ghost, which a later
   [Node_add] of that name adopts. Neighbor references hold slots, so a
   removal sweeps nothing: references to a dead slot are dropped when the
   result is built, and a name added again after its removal gets a fresh
   slot. The routers no delta touches keep their records. *)

type status = Alive | Ghost | Dead

type edit = {
  base : Graph.t;
  n0 : int;
  mutable names : string array;
  mutable status : status array;
  mutable routers : Device.router array;
      (* by slot; neighbor references are slots *)
  mutable n : int;  (* slots in use *)
  rebound : (string, int) Hashtbl.t;
      (* names whose slot is not the base graph's node: -1 when unbound *)
  mutable added : int list;  (* slots of [Node_add], newest first *)
  links : (int * int, bool) Hashtbl.t;
      (* links set by deltas, keyed by (lower, higher) slot; they override
         the base graph *)
  mutable topology : bool;  (* a node or link delta was applied *)
  work : int ref;  (* this domain's work counter *)
}

let start (net : Device.network) =
  let g = net.Device.graph in
  let n0 = Graph.n_nodes g in
  {
    base = g;
    n0;
    names = Array.init n0 (Graph.name g);
    status = Array.make n0 Alive;
    routers = Array.copy net.Device.routers;
    n = n0;
    rebound = Hashtbl.create 8;
    added = [];
    links = Hashtbl.create 8;
    topology = false;
    work = Domain.DLS.get work_key;
  }

let slot_of st name =
  match Hashtbl.find_opt st.rebound name with
  | Some s -> if s >= 0 then Some s else None
  | None -> Graph.find_by_name st.base name

let is_alive st s = match st.status.(s) with Alive -> true | Ghost | Dead -> false
let is_ghost st s = match st.status.(s) with Ghost -> true | Alive | Dead -> false
let unknown name = invalid_arg (Printf.sprintf "Delta: unknown router %S" name)

(* The slot of a live router. *)
let get st name =
  match slot_of st name with
  | Some s when is_alive st s -> s
  | Some _ | None -> unknown name

let new_slot st name status =
  if st.n = Array.length st.names then begin
    let grow a x = Array.append a (Array.make (max 8 (Array.length a)) x) in
    st.names <- grow st.names "";
    st.status <- grow st.status Dead;
    st.routers <- grow st.routers (Device.default_router "")
  end;
  let s = st.n in
  st.names.(s) <- name;
  st.status.(s) <- status;
  st.routers.(s) <- Device.default_router name;
  st.n <- s + 1;
  Hashtbl.replace st.rebound name s;
  s

(* The slot a new reference to [name] holds: its router's, or a ghost. *)
let ref_slot st name =
  match slot_of st name with Some s -> s | None -> new_slot st name Ghost

let link_key s t = if s < t then (s, t) else (t, s)

let has_link st s t =
  match Hashtbl.find_opt st.links (link_key s t) with
  | Some up -> up
  | None ->
    s < st.n0 && t < st.n0
    && (Graph.has_edge st.base s t || Graph.has_edge st.base t s)

let rec assoc_slot w s = function
  | [] -> None
  | (s', x) :: rest ->
    incr w;
    if Int.equal s s' then Some x else assoc_slot w s rest

let assoc_del w s l =
  List.filter
    (fun (s', _) ->
      incr w;
      not (Int.equal s s'))
    l

let assoc_set w s x l = (s, x) :: assoc_del w s l

(* [l] with its entry for [nbr] set to [x], or removed when [None]. *)
let replace st nbr x l =
  match x with
  | Some x -> assoc_set st.work (ref_slot st nbr) x l
  | None -> ( match slot_of st nbr with None -> l | Some s -> assoc_del st.work s l)

(* The entry of [l] for [nbr], with [nbr]'s slot. *)
let find st nbr l =
  match slot_of st nbr with
  | None -> None
  | Some s -> Option.map (fun x -> (s, x)) (assoc_slot st.work s l)

(* Drop everything router [s] configures for neighbor [t]: the
   per-interface state that makes no sense once the link is gone. *)
let purge st s t =
  let r = st.routers.(s) and w = st.work in
  st.routers.(s) <-
    {
      r with
      Device.bgp_neighbors = assoc_del w t r.Device.bgp_neighbors;
      ospf_links = assoc_del w t r.Device.ospf_links;
      acl_out = assoc_del w t r.Device.acl_out;
      static_routes =
        List.filter
          (fun (_, v) ->
            incr w;
            not (Int.equal v t))
          r.Device.static_routes;
    }

let apply_delta st d =
  let update node f =
    let s = get st node in
    (* [f] may add a ghost slot, which replaces [st.routers] *)
    let r = f st.routers.(s) in
    st.routers.(s) <- r
  in
  match d with
  | Link_up (a, b) ->
    let s = get st a in
    let t = get st b in
    if String.equal a b then invalid_arg "Delta: self-link";
    if has_link st s t then
      invalid_arg (Printf.sprintf "Delta: link %s -- %s already exists" a b);
    Hashtbl.replace st.links (link_key s t) true;
    st.topology <- true
  | Link_down (a, b) -> (
    match (slot_of st a, slot_of st b) with
    | Some s, Some t when has_link st s t ->
      Hashtbl.replace st.links (link_key s t) false;
      purge st s t;
      purge st t s;
      st.topology <- true
    | _ -> invalid_arg (Printf.sprintf "Delta: no link %s -- %s" a b))
  | Node_add name ->
    let s =
      match slot_of st name with
      | Some s when is_alive st s ->
        invalid_arg (Printf.sprintf "Delta: router %S already exists" name)
      | Some s ->
        st.status.(s) <- Alive;
        st.routers.(s) <- Device.default_router name;
        s
      | None -> new_slot st name Alive
    in
    st.added <- s :: st.added;
    st.topology <- true
  | Node_remove name ->
    let s = get st name in
    st.status.(s) <- Dead;
    Hashtbl.replace st.rebound name (-1);
    st.topology <- true
  | Ospf_cost { node; nbr; cost } ->
    update node (fun r ->
        match find st nbr r.Device.ospf_links with
        | None ->
          invalid_arg
            (Printf.sprintf "Delta: %s has no OSPF interface towards %s" node nbr)
        | Some (t, l) ->
          {
            r with
            ospf_links = assoc_set st.work t { l with Device.cost } r.ospf_links;
          })
  | Ospf_link_set { node; nbr; link } ->
    update node (fun r -> { r with ospf_links = replace st nbr link r.ospf_links })
  | Ospf_area_set { node; area } ->
    update node (fun r -> { r with ospf_area = area })
  | Route_map_set { node; nbr; dir; rm } ->
    update node (fun r ->
        match find st nbr r.Device.bgp_neighbors with
        | None ->
          invalid_arg
            (Printf.sprintf "Delta: %s has no BGP session with %s" node nbr)
        | Some (t, c) ->
          let c =
            match dir with
            | Import -> { c with Device.import_rm = rm }
            | Export -> { c with Device.export_rm = rm }
          in
          { r with bgp_neighbors = assoc_set st.work t c r.bgp_neighbors })
  | Bgp_neighbor_set { node; nbr; config } ->
    update node (fun r ->
        { r with bgp_neighbors = replace st nbr config r.bgp_neighbors })
  | Acl_set { node; nbr; acl } ->
    update node (fun r -> { r with acl_out = replace st nbr acl r.acl_out })
  | Static_set { node; routes } ->
    update node (fun r ->
        { r with static_routes = List.map (fun (p, v) -> (p, ref_slot st v)) routes })
  | Originate_set { node; prefixes } ->
    update node (fun r -> { r with originated = prefixes })
  | Redistribute_set { node; redistribute } ->
    update node (fun r -> { r with redistribute })

(* A reference to a name no router took by the end is an error. It is
   reported for the router first in node order and, within it, for the
   ACLs, static routes, OSPF interfaces, then BGP sessions, each in its
   canonical order: the order in which names have always been resolved,
   so that the message names the same router whatever the
   implementation. *)
let check_ghosts st order =
  let w = st.work in
  let by_nbr l =
    List.filter_map
      (fun (v, _) ->
        incr w;
        if is_ghost st v then Some st.names.(v) else None)
      l
    |> List.sort String.compare
  in
  let by_route l =
    List.filter_map
      (fun (p, v) ->
        incr w;
        if is_ghost st v then Some (p, st.names.(v)) else None)
      l
    |> List.sort compare_static |> List.map snd
  in
  Array.iter
    (fun s ->
      let r = st.routers.(s) in
      match
        by_nbr r.Device.acl_out @ by_route r.Device.static_routes
        @ by_nbr r.Device.ospf_links @ by_nbr r.Device.bgp_neighbors
      with
      | name :: _ -> unknown name
      | [] -> ())
    order

(* Router [r] of slot [s] in canonical order, under the final ids [fin]
   (-1: the slot is dead); the record itself when nothing moves. Each
   list is walked a bounded number of times, counted as one unit per
   entry. *)
let finish_router st fin s (r : Device.router) =
  let name = st.names.(s) in
  st.work :=
    !(st.work) + 1
    + List.length r.Device.bgp_neighbors
    + List.length r.Device.ospf_links
    + List.length r.Device.acl_out
    + List.length r.Device.static_routes
    + List.length r.Device.originated
    + List.length r.Device.redistribute;
  let assoc l =
    if
      List.for_all (fun (v, _) -> Int.equal fin.(v) v) l
      && sorted (fun (u, _) (v, _) -> Int.compare u v) l
    then l
    else
      by_id
        (List.filter_map
           (fun (v, x) -> if fin.(v) >= 0 then Some (fin.(v), x) else None)
           l)
  in
  let statics l =
    let cmp (p, u) (q, v) = compare_static (p, st.names.(u)) (q, st.names.(v)) in
    if List.for_all (fun (_, v) -> Int.equal fin.(v) v) l && sorted cmp l then l
    else
      List.filter (fun (_, v) -> fin.(v) >= 0) l
      |> List.sort cmp
      |> List.map (fun (p, v) -> (p, fin.(v)))
  in
  let bgp = assoc r.Device.bgp_neighbors
  and ospf = assoc r.Device.ospf_links
  and acl = assoc r.Device.acl_out
  and static = statics r.Device.static_routes
  and orig =
    if sorted Prefix.compare r.Device.originated then r.Device.originated
    else sort_prefixes r.Device.originated
  and redist =
    if sorted ~strict:true Multi.redistribution_compare r.Device.redistribute
    then r.Device.redistribute
    else sort_redist r.Device.redistribute
  in
  if
    String.equal name r.Device.name
    && bgp == r.Device.bgp_neighbors
    && ospf == r.Device.ospf_links
    && acl == r.Device.acl_out
    && static == r.Device.static_routes
    && orig == r.Device.originated
    && redist == r.Device.redistribute
  then r
  else
    {
      r with
      Device.name;
      bgp_neighbors = bgp;
      ospf_links = ospf;
      acl_out = acl;
      static_routes = static;
      originated = orig;
      redistribute = redist;
    }

let symmetric g =
  let ok = ref true in
  Graph.iter_edges g (fun u v -> if not (Graph.has_edge g v u) then ok := false);
  !ok

let finish st =
  let w = st.work in
  (* Final ids: the base routers in base order, then the added ones in
     order of addition. *)
  let fin = Array.make st.n (-1) in
  let order = ref [] and next = ref 0 in
  let place s =
    if is_alive st s then begin
      fin.(s) <- !next;
      incr next;
      order := s :: !order
    end
  in
  for s = 0 to st.n0 - 1 do
    place s
  done;
  List.iter place (List.rev st.added);
  let order = Array.of_list (List.rev !order) in
  let ghosts = ref false in
  for s = st.n0 to st.n - 1 do
    if is_ghost st s then ghosts := true
  done;
  if !ghosts then check_ghosts st order;
  let g = st.base in
  w := !w + st.n + Graph.n_edges g + Hashtbl.length st.links;
  let graph =
    if (not st.topology) && symmetric g then g
    else begin
      let b = Graph.Builder.create () in
      Array.iter (fun s -> ignore (Graph.Builder.add_node b st.names.(s))) order;
      let add s t = if fin.(s) >= 0 && fin.(t) >= 0 then Graph.Builder.add_link b fin.(s) fin.(t) in
      Graph.iter_edges g (fun u v ->
          match Hashtbl.find_opt st.links (link_key u v) with
          | Some false -> ()
          | Some true | None -> add u v);
      Hashtbl.iter (fun (s, t) up -> if up then add s t) st.links;
      Graph.Builder.build b
    end
  in
  let routers = Array.map (fun s -> finish_router st fin s st.routers.(s)) order in
  { Device.graph; routers }

let apply net deltas =
  let st = start net in
  List.iter
    (fun d ->
      incr st.work;
      apply_delta st d)
    deltas;
  finish st

(* ------------------------------------------------------------------ *)
(* diff *)

(* The union of two name-sorted assoc lists, walked in name order: [f]
   gets each name with the first value each side holds under it. *)
let union_by_name f la lb =
  let rec skip k = function
    | (k', _) :: rest when String.equal k k' -> skip k rest
    | l -> l
  in
  let rec go acc la lb =
    match (la, lb) with
    | [], [] -> List.rev acc
    | (k, x) :: ra, [] -> go (List.rev_append (f k (Some x) None) acc) (skip k ra) []
    | [], (k, y) :: rb -> go (List.rev_append (f k None (Some y)) acc) [] (skip k rb)
    | (ka, x) :: ra, (kb, y) :: rb ->
      let c = String.compare ka kb in
      if c < 0 then go (List.rev_append (f ka (Some x) None) acc) (skip ka ra) lb
      else if c > 0 then
        go (List.rev_append (f kb None (Some y)) acc) la (skip kb rb)
      else
        go (List.rev_append (f ka (Some x) (Some y)) acc) (skip ka ra) (skip kb rb)
  in
  go [] la lb

(* The configuration deltas turning router [ra] of network a into router
   [rb] of network b. [ta] maps a's node ids to b's (-1: not in b); a list
   whose entries agree one by one under [ta] is unchanged, and only a list
   that differs is put in canonical order and compared by name. *)
let diff_router w ~same_ids ~ta ~name_a ~name_b node (ra : Device.router)
    (rb : Device.router) =
  incr w;
  if same_ids && ra == rb then []
  else begin
    let same eq la lb =
      (same_ids && la == lb)
      || List.equal
           (fun (u, x) (v, y) ->
             incr w;
             Int.equal ta.(u) v && eq x y)
           la lb
    in
    let named name l = by_name (List.map (fun (v, x) -> (name v, x)) l) in
    let per_nbr eq f la lb =
      if same eq la lb then []
      else begin
        w := !w + List.length la + List.length lb;
        union_by_name f (named name_a la) (named name_b lb)
      end
    in
    let area =
      if Int.equal ra.Device.ospf_area rb.Device.ospf_area then []
      else [ Ospf_area_set { node; area = rb.Device.ospf_area } ]
    in
    let rm_equal = Option.equal Route_map.equal in
    let bgp =
      per_nbr Device.bgp_neighbor_equal
        (fun nbr ca cb ->
          match (ca, cb) with
          | None, None -> []
          | None, Some c -> [ Bgp_neighbor_set { node; nbr; config = Some c } ]
          | Some _, None -> [ Bgp_neighbor_set { node; nbr; config = None } ]
          | Some ca, Some cb ->
            if Device.bgp_neighbor_equal ca cb then []
            else if
              Bool.equal ca.Device.ibgp cb.Device.ibgp
              && Device.relation_equal ca.Device.rel cb.Device.rel
            then
              (if rm_equal ca.Device.import_rm cb.Device.import_rm then []
               else
                 [ Route_map_set { node; nbr; dir = Import; rm = cb.Device.import_rm } ])
              @
              if rm_equal ca.Device.export_rm cb.Device.export_rm then []
              else
                [ Route_map_set { node; nbr; dir = Export; rm = cb.Device.export_rm } ]
            else [ Bgp_neighbor_set { node; nbr; config = Some cb } ])
        ra.Device.bgp_neighbors rb.Device.bgp_neighbors
    in
    let ospf =
      per_nbr Device.ospf_link_equal
        (fun nbr la lb ->
          match (la, lb) with
          | None, None -> []
          | None, Some l -> [ Ospf_link_set { node; nbr; link = Some l } ]
          | Some _, None -> [ Ospf_link_set { node; nbr; link = None } ]
          | Some la, Some lb ->
            if Device.ospf_link_equal la lb then []
            else if Int.equal la.Device.area lb.Device.area then
              [ Ospf_cost { node; nbr; cost = lb.Device.cost } ]
            else [ Ospf_link_set { node; nbr; link = Some lb } ])
        ra.Device.ospf_links rb.Device.ospf_links
    in
    let acl =
      per_nbr Acl.equal
        (fun nbr a b ->
          if Option.equal Acl.equal a b then [] else [ Acl_set { node; nbr; acl = b } ])
        ra.Device.acl_out rb.Device.acl_out
    in
    let static =
      let la = ra.Device.static_routes and lb = rb.Device.static_routes in
      if
        (same_ids && la == lb)
        || List.equal
             (fun (p, u) (q, v) -> Prefix.equal p q && Int.equal ta.(u) v)
             la lb
      then []
      else
        let named name l =
          List.sort compare_static (List.map (fun (p, v) -> (p, name v)) l)
        in
        let sb = named name_b lb in
        if
          List.equal
            (fun (p, m) (q, n) -> Prefix.equal p q && String.equal m n)
            (named name_a la) sb
        then []
        else [ Static_set { node; routes = sb } ]
    in
    let as_set eq sort la lb make =
      if la == lb || List.equal eq la lb then []
      else
        let sb = sort lb in
        if List.equal eq (sort la) sb then [] else [ make sb ]
    in
    area @ bgp @ ospf @ acl @ static
    @ as_set Prefix.equal sort_prefixes ra.Device.originated rb.Device.originated
        (fun prefixes -> Originate_set { node; prefixes })
    @ as_set Multi.redistribution_equal sort_redist ra.Device.redistribute
        rb.Device.redistribute (fun redistribute ->
          Redistribute_set { node; redistribute })
  end

(* [succ] (a's out-neighbors of one node) in b's ids, without the nodes
   b lacks, ascending. *)
let surviving ta succ =
  let out = Array.make (Array.length succ) 0 and k = ref 0 and ordered = ref true in
  Array.iter
    (fun v ->
      let v' = ta.(v) in
      if v' >= 0 then begin
        if !k > 0 && out.(!k - 1) > v' then ordered := false;
        out.(!k) <- v';
        incr k
      end)
    succ;
  let out = if !k = Array.length succ then out else Array.sub out 0 !k in
  if not !ordered then Array.sort Int.compare out;
  out

let id_map (a : Device.network) (b : Device.network) =
  let ga = a.Device.graph and gb = b.Device.graph in
  if ga == gb then None
  else begin
    let na = Graph.n_nodes ga and nb = Graph.n_nodes gb in
    let ta =
      Array.init na (fun i ->
          let x = Graph.name ga i in
          if i < nb && String.equal x (Graph.name gb i) then i
          else Option.value (Graph.find_by_name gb x) ~default:(-1))
    in
    let rec ident i = i >= na || (Int.equal ta.(i) i && ident (i + 1)) in
    if Int.equal na nb && ident 0 then None else Some ta
  end

let diff (a : Device.network) (b : Device.network) =
  let w = Domain.DLS.get work_key in
  let ga = a.Device.graph and gb = b.Device.graph in
  let na = Graph.n_nodes ga and nb = Graph.n_nodes gb in
  let name_a = Graph.name ga and name_b = Graph.name gb in
  (* Routers match by name: a's ids in b and back, -1 on one side only. *)
  let same_ids, ta =
    match id_map a b with
    | None -> (true, Array.init na Fun.id)
    | Some ta -> (false, ta)
  in
  let tb = Array.make nb (-1) in
  Array.iteri (fun i j -> if j >= 0 then tb.(j) <- i) ta;
  w := !w + na + nb;
  (* Links: one merge per surviving node of its out-neighbors on both
     sides. A directed edge on one side only changes the link unless the
     reverse edge keeps it there. *)
  let downs = ref [] and ups = ref [] in
  let link u v = canon (name_b u) (name_b v) in
  for u = 0 to na - 1 do
    let u' = ta.(u) in
    if u' >= 0 then begin
      let sa = surviving ta (Graph.succ ga u) and sb = Graph.succ gb u' in
      let la = Array.length sa and lb = Array.length sb in
      let i = ref 0 and j = ref 0 in
      while !i < la || !j < lb do
        incr w;
        if !j >= lb || (!i < la && sa.(!i) < sb.(!j)) then begin
          let v' = sa.(!i) in
          if not (Graph.has_edge gb v' u') then downs := link u' v' :: !downs;
          incr i
        end
        else if !i >= la || sb.(!j) < sa.(!i) then begin
          let v' = sb.(!j) in
          if tb.(v') < 0 || not (Graph.has_edge ga tb.(v') u) then
            ups := link u' v' :: !ups;
          incr j
        end
        else begin
          incr i;
          incr j
        end
      done
    end
  done;
  let removed = ref [] and added = ref [] in
  for i = na - 1 downto 0 do
    if ta.(i) < 0 then removed := Node_remove (name_a i) :: !removed
  done;
  for j = nb - 1 downto 0 do
    if tb.(j) < 0 then begin
      added := Node_add (name_b j) :: !added;
      Array.iter
        (fun v ->
          incr w;
          ups := link j v :: !ups)
        (Graph.succ gb j)
    end
  done;
  let links make l = List.map (fun (x, y) -> make x y) (List.sort_uniq compare_link l) in
  let config = ref [] in
  for j = nb - 1 downto 0 do
    let node = name_b j in
    let ra =
      if tb.(j) >= 0 then a.Device.routers.(tb.(j)) else Device.default_router node
    in
    match diff_router w ~same_ids ~ta ~name_a ~name_b node ra b.Device.routers.(j) with
    | [] -> ()
    | ds -> config := ds @ !config
  done;
  !removed
  @ links (fun x y -> Link_down (x, y)) !downs
  @ !added
  @ links (fun x y -> Link_up (x, y)) !ups
  @ !config

(* ------------------------------------------------------------------ *)

let touched (net : Device.network) d =
  let names =
    match d with
    | Link_up (a, b) | Link_down (a, b) -> [ a; b ]
    | Node_add x | Node_remove x -> [ x ]
    | Ospf_cost { node; nbr; _ }
    | Ospf_link_set { node; nbr; _ }
    | Route_map_set { node; nbr; _ }
    | Bgp_neighbor_set { node; nbr; _ }
    | Acl_set { node; nbr; _ } -> [ node; nbr ]
    | Ospf_area_set { node; _ }
    | Originate_set { node; _ }
    | Redistribute_set { node; _ } -> [ node ]
    | Static_set { node; routes } -> node :: List.map snd routes
  in
  List.filter_map (Graph.find_by_name net.Device.graph) names
  |> List.sort_uniq Int.compare

let is_topology = function
  | Link_up _ | Link_down _ | Node_add _ | Node_remove _ -> true
  | _ -> false

let is_node_change = function Node_add _ | Node_remove _ -> true | _ -> false

let pp ppf = function
  | Link_up (a, b) -> Format.fprintf ppf "link up %s -- %s" a b
  | Link_down (a, b) -> Format.fprintf ppf "link down %s -- %s" a b
  | Node_add x -> Format.fprintf ppf "add node %s" x
  | Node_remove x -> Format.fprintf ppf "remove node %s" x
  | Ospf_cost { node; nbr; cost } ->
    Format.fprintf ppf "ospf cost %s->%s = %d" node nbr cost
  | Ospf_link_set { node; nbr; link = None } ->
    Format.fprintf ppf "ospf interface %s->%s removed" node nbr
  | Ospf_link_set { node; nbr; link = Some l } ->
    Format.fprintf ppf "ospf interface %s->%s cost %d area %d" node nbr
      l.Device.cost l.Device.area
  | Ospf_area_set { node; area } ->
    Format.fprintf ppf "ospf area %s = %d" node area
  | Route_map_set { node; nbr; dir; rm } ->
    Format.fprintf ppf "%s route-map %s->%s %s"
      (match dir with Import -> "import" | Export -> "export")
      node nbr
      (match rm with None -> "cleared" | Some _ -> "replaced")
  | Bgp_neighbor_set { node; nbr; config = None } ->
    Format.fprintf ppf "bgp session %s->%s removed" node nbr
  | Bgp_neighbor_set { node; nbr; config = Some c } ->
    Format.fprintf ppf "%s session %s->%s configured"
      (if c.Device.ibgp then "ibgp" else "ebgp")
      node nbr
  | Acl_set { node; nbr; acl } ->
    Format.fprintf ppf "acl %s->%s %s" node nbr
      (match acl with None -> "cleared" | Some _ -> "replaced")
  | Static_set { node; routes } ->
    Format.fprintf ppf "static routes %s (%d)" node (List.length routes)
  | Originate_set { node; prefixes } ->
    Format.fprintf ppf "originate %s (%d prefixes)" node (List.length prefixes)
  | Redistribute_set { node; redistribute } ->
    Format.fprintf ppf "redistribute %s (%d)" node (List.length redistribute)

let to_string d = Format.asprintf "%a" pp d
