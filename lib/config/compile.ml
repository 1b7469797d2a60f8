(* Route-map memo: physical identity first (the map value seen before),
   then structural equality for equal maps written out per neighbor,
   under a hash deep enough to tell multi-clause maps apart. *)
module Rm_memo = Hashtbl.Make (struct
  type t = Route_map.t

  let equal = Route_map.equal
  let hash = Hashtbl.hash_param 100 200
end)

module Acl_memo = Hashtbl.Make (struct
  type t = Acl.t

  let equal = Acl.equal
  let hash = Hashtbl.hash_param 100 200
end)

let scan_matched_comms (net : Device.network) =
  let set = Hashtbl.create 32 in
  let scan = function
    | None -> ()
    | Some rm ->
      List.iter (fun c -> Hashtbl.replace set c ())
        (Route_map.communities_matched rm)
  in
  Array.iter
    (fun (r : Device.router) ->
      List.iter
        (fun (_, (nb : Device.bgp_neighbor)) ->
          scan nb.import_rm;
          scan nb.export_rm)
        r.bgp_neighbors)
    net.routers;
  fun c -> Hashtbl.mem set c

(* --- compiled transfers ----------------------------------------------- *)

(* The destination-independent facts of every directed edge (receiver
   [u], sender [v]), indexed by edge id: what the transfer of any class
   reads from configuration, resolved once per network. Route maps and
   ACLs are interned, so each distinct one is specialized once per
   destination. *)
type edge_facts = {
  net : Device.network;
  multi : Multi.edges;
      (* the class-independent tables: sessions, OSPF, areas and
         redistribution; [static_on] and [bgp_policy] are per class *)
  import_id : int array;  (* [u]'s import map; -1: none (permit all) *)
  export_id : int array;  (* [v]'s export map; -1: none *)
  own_export_id : int array;
      (* [u]'s own export map towards [v] (the edge signature's export
         side); -1: none *)
  acl_id : int array;  (* [u]'s outbound ACL towards [v]; -1: none *)
  kind : int array;
      (* the edge's kind: edges of one kind agree on every fact an edge
         signature reads apart from the per-class static routes *)
  kind_rep : (int * int * int) array;
      (* by kind, one edge of the kind with its receiver and sender *)
  static_routers : int list;  (* the routers with static routes *)
  maps : Route_map.t array;
  acls : Acl.t array;
  tie_filter : int -> bool;  (* [matched_comms] *)
}

(* Ids count up from 0 in first-seen order; [None] is -1. The second
   function returns the interned values, indexed by id. *)
let interner (type a) (module H : Hashtbl.S with type key = a) =
  let tbl = H.create 64 and seen = ref [] in
  let id = function
    | None -> -1
    | Some x -> (
      match H.find_opt tbl x with
      | Some i -> i
      | None ->
        let i = H.length tbl in
        H.add tbl x i;
        seen := x :: !seen;
        i)
  in
  (id, fun () -> Array.of_list (List.rev !seen))

module Kind_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = Array.for_all2 Int.equal a b
  let hash (a : t) = Array.fold_left (fun h x -> (h * 31) + x) 17 a
end)

(* Edge kinds: edges are interned by every fact a signature reads from
   the per-network tables (sessions, the two maps, the ACL, the OSPF link
   and, on an OSPF link, both endpoints' areas). *)
let edge_kinds g ~bgp_on ~ibgp ~import_id ~own_export_id ~acl_id ~ospf_on
    ~ospf_cost ~area =
  let kinds = Kind_tbl.create 64 and reps = ref [] in
  let kind = Array.make (Graph.n_edges g) 0 in
  let b x = if x then 1 else 0 in
  for u = 0 to Graph.n_nodes g - 1 do
    let base = Graph.edge_base g u in
    Array.iteri
      (fun i v ->
        let e = base + i in
        let areas = if ospf_on.(e) then (area.(u), area.(v)) else (-1, -1) in
        let key =
          [| b bgp_on.(e); b ibgp.(e); import_id.(e); own_export_id.(e);
             acl_id.(e); b ospf_on.(e); ospf_cost.(e); fst areas; snd areas |]
        in
        kind.(e) <-
          (match Kind_tbl.find_opt kinds key with
          | Some k -> k
          | None ->
            let k = Kind_tbl.length kinds in
            Kind_tbl.add kinds key k;
            reps := (e, u, v) :: !reps;
            k))
      (Graph.succ g u)
  done;
  (kind, Array.of_list (List.rev !reps))

let build_facts (net : Device.network) =
  let g = net.graph and r = net.routers in
  let m = Graph.n_edges g in
  let bgp_on = Array.make m false and ibgp = Array.make m false in
  let import_id = Array.make m (-1) and export_id = Array.make m (-1) in
  let own_export_id = Array.make m (-1) in
  let acl_id = Array.make m (-1) in
  let ospf_on = Array.make m false and ospf_cost = Array.make m 1 in
  let map_id, maps = interner (module Rm_memo) in
  let acl_id_of, acls = interner (module Acl_memo) in
  for u = 0 to Graph.n_nodes g - 1 do
    let base = Graph.edge_base g u in
    Array.iteri
      (fun i v ->
        let e = base + i in
        (match
           (Device.bgp_neighbor_config r.(u) v, Device.bgp_neighbor_config r.(v) u)
         with
        | Some imp, Some exp ->
          bgp_on.(e) <- true;
          ibgp.(e) <- imp.Device.ibgp;
          import_id.(e) <- map_id imp.Device.import_rm;
          export_id.(e) <- map_id exp.Device.export_rm;
          own_export_id.(e) <- map_id imp.Device.export_rm
        | _ -> ());
        acl_id.(e) <- acl_id_of (Device.acl_for r.(u) v);
        match (Device.ospf_link_config r.(u) v, Device.ospf_link_config r.(v) u) with
        | Some l, Some _ ->
          ospf_on.(e) <- true;
          ospf_cost.(e) <- l.Device.cost
        | _ -> ())
      (Graph.succ g u)
  done;
  let redistributes k =
    Array.map
      (fun (ru : Device.router) ->
        List.exists (Multi.redistribution_equal k) ru.Device.redistribute)
      r
  in
  let area = Array.map (fun (ru : Device.router) -> ru.Device.ospf_area) r in
  let kind, kind_rep =
    edge_kinds g ~bgp_on ~ibgp ~import_id ~own_export_id ~acl_id ~ospf_on
      ~ospf_cost ~area
  in
  {
    net;
    multi =
      {
        Multi.graph = g;
        ospf_on;
        ospf_cost;
        bgp_on;
        ibgp;
        static_on = [||];
        bgp_policy = (fun _ _ -> None);
        area;
        bgp_into_ospf = redistributes Multi.Bgp_into_ospf;
        ospf_into_bgp = redistributes Multi.Ospf_into_bgp;
        static_into_bgp = redistributes Multi.Static_into_bgp;
      };
    import_id;
    export_id;
    own_export_id;
    acl_id;
    kind;
    kind_rep;
    static_routers =
      List.filter
        (fun u -> r.(u).Device.static_routes <> [])
        (List.init (Array.length r) Fun.id);
    maps = maps ();
    acls = acls ();
    tie_filter = scan_matched_comms net;
  }

(* Networks are never mutated after construction, so the facts are keyed
   by the network's identity. Two entries per domain: a data-plane diff
   compiles the old and the new network class by class, alternately. *)
let facts_cache : edge_facts list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let edge_facts (net : Device.network) =
  let cache = Domain.DLS.get facts_cache in
  match !cache with
  | f :: _ when f.net == net -> f
  | [ f0; f ] when f.net == net ->
    cache := [ f; f0 ];
    f
  | recent ->
    let f = build_facts net in
    cache := (match recent with [] -> [ f ] | f0 :: _ -> [ f; f0 ]);
    f

let matched_comms net = (edge_facts net).tie_filter

(* One destination's view: each distinct route map specialized and each
   ACL's verdict computed on first use. *)
type class_facts = {
  facts : edge_facts;
  dest : Prefix.t;
  compiled : Route_map.compiled option array;
  acl_verdict : int array;  (* -1 unknown, 0 deny, 1 permit *)
}

let class_facts net ~dest =
  let facts = edge_facts net in
  {
    facts;
    dest;
    compiled = Array.make (Array.length facts.maps) None;
    acl_verdict = Array.make (Array.length facts.acls) (-1);
  }

let compiled_map cf id =
  if id < 0 then Route_map.Identity
  else
    match cf.compiled.(id) with
    | Some c -> c
    | None ->
      let c = Route_map.compile cf.facts.maps.(id) ~dest:cf.dest in
      cf.compiled.(id) <- Some c;
      c

let acl_permits cf e =
  let id = cf.facts.acl_id.(e) in
  id < 0
  ||
  match cf.acl_verdict.(id) with
  | 1 -> true
  | 0 -> false
  | _ ->
    let ok = Acl.permits (Some cf.facts.acls.(id)) cf.dest in
    cf.acl_verdict.(id) <- (if ok then 1 else 0);
    ok

(* The policy of edge [e]: the sender's export map, then the receiver's
   import map; dropped without a session on both ends or when the
   receiver's outbound ACL towards the sender denies the destination.
   LOCAL_PREF is not carried over eBGP: between the two maps it is reset
   to the default unless the session is iBGP. *)
let edge_policy cf e a =
  let multi = cf.facts.multi in
  if not (multi.Multi.bgp_on.(e) && acl_permits cf e) then None
  else
    match Route_map.apply (compiled_map cf cf.facts.export_id.(e)) a with
    | None -> None
    | Some a ->
      let a =
        if multi.Multi.ibgp.(e) || a.Bgp.lp = Bgp.default_lp then a
        else { a with Bgp.lp = Bgp.default_lp }
      in
      Route_map.apply (compiled_map cf cf.facts.import_id.(e)) a

let bgp_policy (net : Device.network) ~dest =
  let cf = class_facts net ~dest in
  let g = net.graph in
  fun u v ->
    let e = Graph.edge_index g u v in
    if e < 0 then fun _ -> None else edge_policy cf e

let bgp_srp (net : Device.network) ~dest ~dest_prefix =
  let cf = class_facts net ~dest:dest_prefix in
  let g = net.graph in
  Bgp.make ~tie_filter:cf.facts.tie_filter
    ~policy:(fun u v a ->
      let e = Graph.edge_index g u v in
      if e < 0 then None else edge_policy cf e a)
    g ~dest

(* Which protocols an origin node announces into: BGP if it speaks BGP,
   OSPF if it has OSPF interfaces; a node with neither still announces
   into BGP so the destination is not silently unreachable. Shared with
   the static flow analysis, which must seed its origins exactly like the
   simulator does. *)
let origin_protocols (net : Device.network) origin =
  let r = net.routers in
  let ps =
    (match r.(origin).Device.bgp_neighbors with
    | [] -> []
    | _ -> [ Multi.P_ebgp ])
    @ match r.(origin).Device.ospf_links with [] -> [] | _ -> [ Multi.P_ospf ]
  in
  match ps with [] -> [ Multi.P_ebgp ] | ps -> ps

let multi_srp (net : Device.network) ~dest ~dest_prefix =
  let cf = class_facts net ~dest:dest_prefix in
  let f = cf.facts in
  let g = net.graph in
  let static_on = Array.make (Graph.n_edges g) false in
  Array.iteri
    (fun u ru ->
      match ru.Device.static_routes with
      | [] -> ()
      | _ ->
        List.iter
          (fun v ->
            let e = Graph.edge_index g u v in
            if e < 0 then
              invalid_arg "Multi.make: static route along a missing edge";
            static_on.(e) <- true)
          (Device.static_next_hops ru ~dest:dest_prefix))
    net.routers;
  Multi.of_edges ~bgp_tie_filter:f.tie_filter
    ~origin_protocols:(origin_protocols net dest)
    { f.multi with static_on; bgp_policy = edge_policy cf }
    ~dest

type 'a model = Bgp : Bgp.attr model | Multi : Multi.attr model
type any_model = Model : 'a model -> any_model

(* A network without OSPF, statics or redistribution runs BGP alone;
   there the two SRPs forward alike and the BGP one is cheaper. *)
let model (net : Device.network) =
  if
    Array.exists
      (fun (r : Device.router) ->
        r.Device.ospf_links <> []
        || r.Device.static_routes <> []
        || r.Device.redistribute <> [])
      net.Device.routers
  then Model Multi
  else Model Bgp

let srp : type a.
    a model -> Device.network -> dest:int -> dest_prefix:Prefix.t -> a Srp.t
    =
 fun m net ~dest ~dest_prefix ->
  match m with
  | Bgp -> bgp_srp net ~dest ~dest_prefix
  | Multi -> multi_srp net ~dest ~dest_prefix

let prefs (net : Device.network) ~dest v =
  let lps =
    List.concat_map
      (fun (_, (nb : Device.bgp_neighbor)) ->
        match nb.import_rm with
        | None -> []
        | Some rm -> Route_map.local_prefs rm ~dest)
      net.routers.(v).Device.bgp_neighbors
  in
  List.sort_uniq Int.compare (Bgp.default_lp :: lps)

type edge_signature = {
  sig_import : int;
  sig_export : int;
  sig_ibgp : bool;
  sig_acl : bool;
  sig_ospf : (int * int * int) option;
  sig_static : bool;
}

(* Whether OSPF can carry [dest] at all: only via redistribution, or
   because an originator of [dest] injects it into OSPF (the
   [origin_protocols] rule of [multi_srp]). When neither holds, OSPF link
   state is inert for this class, and folding costs/areas into the
   signature would both over-refine the abstraction and defeat
   delta-driven reuse (lib/incr) on link-cost changes. Note this is a
   whole-network property: the incremental engine compares it across a
   delta before trusting signature locality. *)
let ospf_live (net : Device.network) ~dest =
  Array.exists (fun (r : Device.router) -> r.Device.redistribute <> [])
    net.routers
  || Array.exists
       (fun (r : Device.router) ->
         r.Device.ospf_links <> []
         && List.exists (fun p -> Prefix.equal p dest) r.Device.originated)
       net.routers

let signature_equal a b =
  a.sig_import = b.sig_import
  && a.sig_export = b.sig_export
  && Bool.equal a.sig_ibgp b.sig_ibgp
  && Bool.equal a.sig_acl b.sig_acl
  && (match (a.sig_ospf, b.sig_ospf) with
     | None, None -> true
     | Some (c, r, s), Some (c', r', s') -> c = c' && r = r' && s = s'
     | _ -> false)
  && Bool.equal a.sig_static b.sig_static

module Sig_tbl = Hashtbl.Make (struct
  type t = edge_signature

  let equal = signature_equal

  let hash s =
    let bit b k = if b then k else 0 in
    let ospf =
      match s.sig_ospf with
      | None -> 0
      | Some (c, r, a) -> 1 + (((c * 31) + r) * 31) + a
    in
    (((((s.sig_import * 31) + s.sig_export) * 31) + ospf) * 8)
    + bit s.sig_ibgp 4 + bit s.sig_acl 2 + bit s.sig_static 1
end)

type signature_table = {
  universe : Policy_bdd.universe;
  sid : int -> int;
  signature : int -> edge_signature;
  bound : int;
  no_edge : int;
}

let no_edge_signature =
  { sig_import = -1; sig_export = -1; sig_ibgp = false; sig_acl = true;
    sig_ospf = None; sig_static = false }

let signature_table ?universe ?rm_bdd (net : Device.network) ~dest =
  let u =
    match universe with
    | Some u -> u
    | None -> Policy_bdd.universe_of_network net
  in
  let rm_bdd =
    match rm_bdd with
    | Some f -> f
    | None -> (
      function
      | None -> Policy_bdd.identity u
      | Some rm -> Policy_bdd.encode_route_map u rm ~dest)
  in
  let cf = class_facts net ~dest in
  let f = cf.facts in
  let multi = f.multi and g = net.graph in
  (* each distinct route map's BDD id, looked up once per class *)
  let map_hash = Array.make (Array.length f.maps) min_int in
  let identity_hash = lazy (Bdd.hash (rm_bdd None)) in
  let hash_of id =
    if id < 0 then Lazy.force identity_hash
    else begin
      if map_hash.(id) = min_int then
        map_hash.(id) <- Bdd.hash (rm_bdd (Some f.maps.(id)));
      map_hash.(id)
    end
  in
  let ospf_live = ospf_live net ~dest in
  (* this class's static edges, ascending: the only signatures that
     differ from their kind's *)
  let static_edges =
    List.concat_map
      (fun recv ->
        List.filter_map
          (fun sender ->
            let e = Graph.edge_index g recv sender in
            if e < 0 then None else Some e)
          (Device.static_next_hops net.routers.(recv) ~dest))
      f.static_routers
    |> List.sort_uniq Int.compare |> Array.of_list
  in
  let n_static = Array.length static_edges in
  let n_kinds = Array.length f.kind_rep in
  let bound = n_kinds + n_static + 1 in
  (* dense ids in first-use order; equal signatures share one id *)
  let records = Array.make bound no_edge_signature in
  let shared = Sig_tbl.create 64 in
  let intern s =
    match Sig_tbl.find_opt shared s with
    | Some id -> id
    | None ->
      let id = Sig_tbl.length shared in
      Sig_tbl.add shared s id;
      records.(id) <- s;
      id
  in
  let no_edge = intern no_edge_signature in
  let kind_signature k ~static =
    let e, recv, sender = f.kind_rep.(k) in
    {
      sig_import = (if multi.bgp_on.(e) then hash_of f.import_id.(e) else -1);
      sig_export =
        (if multi.bgp_on.(e) then hash_of f.own_export_id.(e) else -1);
      sig_ibgp = multi.ibgp.(e);
      sig_acl = acl_permits cf e;
      sig_ospf =
        (if ospf_live && multi.ospf_on.(e) then
           Some (multi.ospf_cost.(e), multi.area.(recv), multi.area.(sender))
         else None);
      sig_static = static;
    }
  in
  let kind_sid = Array.make n_kinds (-1) in
  let static_sid = Array.make n_static (-1) in
  let rec static_slot e lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      if static_edges.(mid) < e then static_slot e (mid + 1) hi
      else if static_edges.(mid) > e then static_slot e lo mid
      else mid
  in
  let sid e =
    let j = if n_static = 0 then -1 else static_slot e 0 n_static in
    if j >= 0 then begin
      if static_sid.(j) < 0 then
        static_sid.(j) <- intern (kind_signature f.kind.(e) ~static:true);
      static_sid.(j)
    end
    else
      let k = f.kind.(e) in
      if kind_sid.(k) < 0 then
        kind_sid.(k) <- intern (kind_signature k ~static:false);
      kind_sid.(k)
  in
  { universe = u; sid; signature = Array.get records; bound; no_edge }

let edge_key (t : signature_table) g =
  (* refinement multiplies a pair code (below [bound * bound]) by the
     node count *)
  if t.bound > max_int / t.bound / max (Graph.n_nodes g) 1 then
    invalid_arg "Compile.edge_key: too many edge signatures";
  let pair = Array.make (Graph.n_edges g) (-1) in
  fun u i ->
    let e = Graph.edge_base g u + i in
    if pair.(e) < 0 then begin
      let r = Graph.edge_index g (Graph.succ g u).(i) u in
      pair.(e) <- (t.sid e * t.bound) + if r < 0 then t.no_edge else t.sid r
    end;
    pair.(e)

let edge_signatures ?universe ?rm_bdd (net : Device.network) ~dest =
  let t = signature_table ?universe ?rm_bdd net ~dest in
  let g = net.graph in
  ( t.universe,
    fun recv sender ->
      let e = Graph.edge_index g recv sender in
      t.signature (if e < 0 then t.no_edge else t.sid e) )
