type plane = Ospf | Bgp

let t_ospf = 1
let t_ebgp = 2
let t_ibgp = 4
let t_redist = 8
let t_static = 16
let t_from_provider = 32
let t_from_peer = 64
let has taint bit = taint land bit <> 0

let taint_to_string taint =
  let names =
    [
      (t_ospf, "ospf");
      (t_ebgp, "ebgp");
      (t_ibgp, "ibgp");
      (t_redist, "redist");
      (t_static, "static");
      (t_from_provider, "from-provider");
      (t_from_peer, "from-peer");
    ]
  in
  match List.filter_map (fun (b, n) -> if has taint b then Some n else None) names with
  | [] -> "-"
  | ns -> String.concat "+" ns

type prov = { org : int; taint : int; via_redist : int }

let prov_compare a b =
  match Int.compare a.org b.org with
  | 0 -> (
    match Int.compare a.taint b.taint with
    | 0 -> Int.compare a.via_redist b.via_redist
    | c -> c)
  | c -> c

(* Provs sharing (org, via_redist) are collapsed by or-ing their taints:
   every check is existential over the bits, so the union answers the
   same questions, and it bounds a node's prov set by
   #origins × (#exporters + 1) instead of additionally multiplying by
   the taint variants of every distinct path — which is what blows up
   on networks with many redundant paths. *)
let merge_provs provs =
  let key_cmp p q =
    match Int.compare p.org q.org with
    | 0 -> Int.compare p.via_redist q.via_redist
    | c -> c
  in
  let rec go = function
    | p :: q :: rest when key_cmp p q = 0 ->
      go ({ p with taint = p.taint lor q.taint } :: rest)
    | p :: rest -> p :: go rest
    | [] -> []
  in
  List.sort prov_compare (go (List.sort key_cmp provs))

type fact = Unknown | Facts of { provs : prov list; comms : int list }

let fact_equal a b =
  match (a, b) with
  | Unknown, Unknown -> true
  | Facts a, Facts b ->
    List.equal (fun p q -> prov_compare p q = 0) a.provs b.provs
    && List.equal Int.equal a.comms b.comms
  | (Unknown | Facts _), _ -> false

let join a b =
  match (a, b) with
  | Unknown, _ | _, Unknown -> Unknown
  | Facts a, Facts b ->
    Facts
      {
        provs = merge_provs (a.provs @ b.provs);
        comms = List.sort_uniq Int.compare (a.comms @ b.comms);
      }

(* ------------------------------------------------------------------ *)
(* First-match route-map reachability over the condition universe      *)

let rm_can_permit (u : Cond_bdd.t) rm ~dest =
  match rm with
  | None -> true
  | Some rm ->
    let m = u.Cond_bdd.man in
    let rec go earlier = function
      | [] -> false
      | (cl : Route_map.clause) :: rest ->
        let g = Cond_bdd.guard u cl in
        let fresh = Bdd.and_ m g (Bdd.not_ m earlier) in
        if cl.Route_map.verdict = Route_map.Permit && not (Bdd.is_bot fresh)
        then true
        else go (Bdd.or_ m earlier g) rest
    in
    go Bdd.bot (Route_map.relevant rm ~dest)

(* Fold over reachable clauses (guard escapes the union of the earlier
   guards) of the route-map specialized to [dest]. *)
let fold_reachable (u : Cond_bdd.t) rm ~dest ~init f =
  let m = u.Cond_bdd.man in
  let acc = ref init and earlier = ref Bdd.bot in
  List.iter
    (fun (cl : Route_map.clause) ->
      let g = Cond_bdd.guard u cl in
      let fresh = Bdd.and_ m g (Bdd.not_ m !earlier) in
      if not (Bdd.is_bot fresh) then acc := f !acc cl;
      earlier := Bdd.or_ m !earlier g)
    (Route_map.relevant rm ~dest);
  !acc

let reachable_matched u rm ~dest =
  fold_reachable u rm ~dest ~init:[] (fun acc (cl : Route_map.clause) ->
      List.fold_left
        (fun acc c ->
          match c with
          | Route_map.Match_community cs -> cs @ acc
          | Route_map.Match_prefix _ -> acc)
        acc cl.Route_map.conds)
  |> List.sort_uniq Int.compare

let reachable_added u rm ~dest =
  fold_reachable u rm ~dest ~init:[] (fun acc (cl : Route_map.clause) ->
      if cl.Route_map.verdict <> Route_map.Permit then acc
      else
        List.fold_left
          (fun acc a ->
            match a with
            | Route_map.Add_community c -> c :: acc
            | Route_map.Set_local_pref _ | Route_map.Delete_community _
            | Route_map.Set_med _ ->
              acc)
          acc cl.Route_map.actions)
  |> List.sort_uniq Int.compare

(* ------------------------------------------------------------------ *)
(* Propagation graph                                                   *)

(* Node id of a (router, plane) pair. *)
let node r = function Ospf -> 2 * r | Bgp -> (2 * r) + 1

type edge_kind =
  | K_ospf  (** OSPF adjacency, sender plane -> receiver plane *)
  | K_bgp of { ibgp : bool; rel : Device.relation; added : int list }
      (** deliverable BGP session; [rel] is the {e receiver}'s annotation
          of the sender, [added] the communities either route-map can add *)
  | K_o2b  (** [Ospf_into_bgp] redistribution inside one router *)
  | K_b2o  (** [Bgp_into_ospf] redistribution inside one router *)

type t = {
  net : Device.network;
  ec : Ecs.ec;
  cond : Cond_bdd.t;
  result : fact Dataflow.result;
  bgp_edges : (int * int) list;  (** (sender, receiver) router pairs *)
}

let transfer_kind kind f =
  match f with
  | Unknown -> Some Unknown
  | Facts { provs; comms } -> (
    match kind with
    | K_ospf ->
      Some
        (Facts
           {
             provs =
               merge_provs
                 (List.map (fun p -> { p with taint = p.taint lor t_ospf }) provs);
             comms = [];
           })
    | K_o2b ->
      Some
        (Facts
           {
             provs =
               merge_provs
                 (List.map
                    (fun p -> { p with taint = p.taint lor t_redist })
                    provs);
             comms = [];
           })
    | K_b2o ->
      Some
        (Facts
           {
             provs =
               merge_provs
                 (List.map
                    (fun p ->
                      { p with taint = p.taint lor t_redist lor t_ospf })
                    provs);
             comms = [];
           })
    | K_bgp { ibgp; rel; added } ->
      let session = if ibgp then t_ibgp else t_ebgp in
      let relation =
        match rel with
        | Device.Provider -> t_from_provider
        | Device.Peer -> t_from_peer
        | Device.Customer | Device.Rel_unknown -> 0
      in
      let provs =
        (* Routes learned over iBGP are not re-advertised over iBGP
           (mirrors Multi's transfer). *)
        (if ibgp then List.filter (fun p -> not (has p.taint t_ibgp)) provs
         else provs)
        |> List.map (fun p ->
               { p with taint = p.taint lor session lor relation })
        |> merge_provs
      in
      if provs = [] then None
      else
        Some
          (Facts { provs; comms = List.sort_uniq Int.compare (comms @ added) }))

let analyze ?budget ?cond (net : Device.network) (ec : Ecs.ec) =
  let g = net.Device.graph in
  let rs = net.Device.routers in
  let n = Graph.n_nodes g in
  let dest = ec.Ecs.ec_prefix in
  let cond =
    match cond with Some c -> c | None -> Cond_bdd.of_network net
  in
  let kinds : (int * int, edge_kind) Hashtbl.t = Hashtbl.create 64 in
  let succ = Array.make (2 * n) [] in
  let add_edge src dst kind =
    if not (Hashtbl.mem kinds (src, dst)) then begin
      Hashtbl.replace kinds (src, dst) kind;
      succ.(src) <- dst :: succ.(src)
    end
  in
  let bgp_edges = ref [] in
  for v = 0 to n - 1 do
    (* OSPF adjacencies: link configured on both ends; routes at [v]
       propagate to each such neighbor [w]. *)
    List.iter
      (fun (w, _) ->
        if Option.is_some (Device.ospf_link_config rs.(w) v) then
          add_edge (node v Ospf) (node w Ospf) K_ospf)
      rs.(v).Device.ospf_links;
    (* BGP sessions: v (sender) -> w (receiver), kept only when the
       session can deliver the class — both sides configured, receiver's
       outbound ACL towards the sender permits it (the compiled
       [Compile.bgp_policy] semantics), and both route-maps can permit it
       individually (an over-approximation of the chained evaluation). *)
    List.iter
      (fun (w, (exp_nb : Device.bgp_neighbor)) ->
        match Device.bgp_neighbor_config rs.(w) v with
        | None -> ()
        | Some imp_nb ->
          if
            Acl.permits (Device.acl_for rs.(w) v) dest
            && rm_can_permit cond exp_nb.Device.export_rm ~dest
            && rm_can_permit cond imp_nb.Device.import_rm ~dest
          then begin
            let added =
              List.sort_uniq Int.compare
                ((match exp_nb.Device.export_rm with
                 | None -> []
                 | Some rm -> reachable_added cond rm ~dest)
                @
                match imp_nb.Device.import_rm with
                | None -> []
                | Some rm -> reachable_added cond rm ~dest)
            in
            add_edge (node v Bgp) (node w Bgp)
              (K_bgp
                 {
                   ibgp = imp_nb.Device.ibgp;
                   rel = imp_nb.Device.rel;
                   added;
                 });
            bgp_edges := (v, w) :: !bgp_edges
          end)
      rs.(v).Device.bgp_neighbors;
    (* Redistribution inside [v]. *)
    let redistributes r =
      List.exists (Multi.redistribution_equal r) rs.(v).Device.redistribute
    in
    if redistributes Multi.Ospf_into_bgp && rs.(v).Device.bgp_neighbors <> []
    then add_edge (node v Ospf) (node v Bgp) K_o2b;
    if redistributes Multi.Bgp_into_ospf && rs.(v).Device.ospf_links <> []
    then add_edge (node v Bgp) (node v Ospf) K_b2o
  done;
  (* Seeds: the class's origins announce into the protocols the compiled
     SRP originates into; static routes redistributed into BGP seed a BGP
     announcement at the redistributing router. *)
  let seeds = ref [] in
  let seed r plane prov =
    seeds := (node r plane, Facts { provs = [ prov ]; comms = [] }) :: !seeds
  in
  List.iter
    (fun o ->
      List.iter
        (fun p ->
          match p with
          | Multi.P_ebgp -> seed o Bgp { org = o; taint = 0; via_redist = -1 }
          | Multi.P_ospf ->
            seed o Ospf { org = o; taint = t_ospf; via_redist = -1 }
          | Multi.P_static | Multi.P_ibgp -> ())
        (Compile.origin_protocols net o))
    ec.Ecs.ec_origins;
  for v = 0 to n - 1 do
    if
      List.exists
        (Multi.redistribution_equal Multi.Static_into_bgp)
        rs.(v).Device.redistribute
      && rs.(v).Device.bgp_neighbors <> []
      && Device.static_next_hops rs.(v) ~dest <> []
    then
      seed v Bgp
        { org = v; taint = t_static lor t_redist; via_redist = v }
  done;
  (* [Ospf_into_bgp]/[Static_into_bgp] stamp the exporter: a leak check
     needs to know where the route last entered BGP. The o2b edge cannot
     carry its own router id through [transfer_kind] (kinds are shared),
     so wrap the transfer to stamp it here. *)
  let transfer ~src ~dst f =
    match Hashtbl.find_opt kinds (src, dst) with
    | None -> None
    | Some kind -> (
      match (kind, transfer_kind kind f) with
      | K_o2b, Some (Facts { provs; comms }) ->
        Some
          (Facts
             {
               provs =
                 merge_provs
                   (List.map (fun p -> { p with via_redist = src / 2 }) provs);
               comms;
             })
      | _, r -> r)
  in
  (* [merge_provs] already bounds a node's set by
     #origins × (#exporters + 1), and each merged prov's taint only ever
     gains bits, so the natural per-node height is a few hundred joins
     even on thousand-node networks; the caps are backstops for
     pathological inputs, not the steady-state bound. Keep them
     constants — an earlier revision scaled the size cap with the
     network (64 + 8n) and unmerged taint variants, which made
     thousand-node networks quadratic without buying any verdicts. *)
  let widen ~joins f =
    match f with
    | Unknown -> Unknown
    | Facts { provs; _ } ->
      if joins > 512 || List.length provs > 64 then Unknown else f
  in
  let problem =
    {
      Dataflow.nodes = 2 * n;
      succ = (fun v -> succ.(v));
      transfer;
      seeds = !seeds;
      join;
      equal = fact_equal;
      top = Unknown;
      widen = Some widen;
    }
  in
  let result = Dataflow.solve ?budget problem in
  {
    net;
    ec;
    cond;
    result;
    bgp_edges =
      List.sort_uniq
        (fun (a, b) (c, d) ->
          match Int.compare a c with 0 -> Int.compare b d | r -> r)
        !bgp_edges;
  }

let network t = t.net
let ec t = t.ec
let cond t = t.cond
let degraded t = t.result.Dataflow.degraded
let fact t r plane = t.result.Dataflow.facts.(node r plane)

let bgp_edges t = t.bgp_edges

let export_added t ~src ~dst =
  let dest = t.ec.Ecs.ec_prefix in
  match Device.bgp_neighbor_config t.net.Device.routers.(src) dst with
  | None -> []
  | Some nb -> (
    match nb.Device.export_rm with
    | None -> []
    | Some rm -> reachable_added t.cond rm ~dest)

let pp_fact ~names ppf = function
  | Unknown -> Format.pp_print_string ppf "unknown"
  | Facts { provs; comms } ->
    let prov p =
      Printf.sprintf "%s[%s]%s" (names p.org)
        (taint_to_string p.taint)
        (if p.via_redist >= 0 then "@" ^ names p.via_redist else "")
    in
    Format.fprintf ppf "{%s}" (String.concat ", " (List.map prov provs));
    if comms <> [] then
      Format.fprintf ppf " comms {%s}"
        (String.concat ", "
           (List.map Config_text.community_to_string comms))
