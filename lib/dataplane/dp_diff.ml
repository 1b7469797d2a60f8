(* Differential data-plane compilation: exactly which FIB entries does a
   config change touch? Composes the per-class compiler with lib/incr's
   clean-class proof (Incr.solution_unchanged): a class whose SRP inputs
   are provably unchanged across the delta — same origins, untouched
   destination, stable OSPF-liveness, equal edge signatures (which
   include the per-edge ACL verdict for the class) on every
   touched-incident edge — has byte-identical forwarding state on both
   sides and is never recompiled. Only dirty classes are solved, on both
   networks, and their entries diffed router by router. *)

type change_kind = Added | Removed | Modified

type change = {
  c_router : int;
  c_prefix : Prefix.t;
  c_kind : change_kind;
  c_old : Dataplane.entry option;
  c_new : Dataplane.entry option;
}

type report = {
  dp_deltas : Delta.t list;
  dp_classes : int;
  dp_reused : int;
  dp_recompiled : int;
  dp_anycast : int;
  dp_full_rebuild : bool;
  dp_changes : change list;
  dp_unknown : Prefix.t list;
  dp_degradation : Bonsai_api.degradation option;
  dp_time_s : float;
}

let changed r = r.dp_changes <> []

(* Diff one class's per-router entries (both sides sorted by router). *)
let diff_class prefix old_entries new_entries =
  let rec go acc olds news =
    match (olds, news) with
    | [], [] -> List.rev acc
    | (u, e) :: olds', [] ->
      go
        ({ c_router = u; c_prefix = prefix; c_kind = Removed;
           c_old = Some e; c_new = None }
        :: acc)
        olds' []
    | [], (u, e) :: news' ->
      go
        ({ c_router = u; c_prefix = prefix; c_kind = Added;
           c_old = None; c_new = Some e }
        :: acc)
        [] news'
    | (u, e) :: olds', (u', e') :: news' ->
      if u < u' then
        go
          ({ c_router = u; c_prefix = prefix; c_kind = Removed;
             c_old = Some e; c_new = None }
          :: acc)
          olds' news
      else if u' < u then
        go
          ({ c_router = u'; c_prefix = prefix; c_kind = Added;
             c_old = None; c_new = Some e' }
          :: acc)
          olds news'
      else if
        e.Dataplane.e_next_hops = e'.Dataplane.e_next_hops
        && e.Dataplane.e_acl_dropped = e'.Dataplane.e_acl_dropped
      then go acc olds' news'
      else
        go
          ({ c_router = u; c_prefix = prefix; c_kind = Modified;
             c_old = Some e; c_new = Some e' }
          :: acc)
          olds' news'
  in
  go [] old_entries new_entries

let entries_of ?protocol ?budget net = function
  | None -> `Entries []
  | Some ec -> (
    match Dataplane.compile_ec ?protocol ?budget net ec with
    | `Compiled cf -> `Entries cf.Dataplane.cf_entries
    | `Unsolved -> `Unsolved
    | `Anycast -> `Entries [])

let run ?budget ?cache ?protocol ~(old_net : Device.network)
    ~(new_net : Device.network) (deltas : Delta.t list) =
  Bonsai_error.protect @@ fun () ->
  let t0 = Timing.now () in
  let protocol =
    match protocol with
    | Some p -> Some p
    | None ->
      (* either side multi-protocol ⇒ compile both under `Multi so the
         two FIBs are comparable *)
      Some
        (match
           ( Dataplane.detect_protocol old_net,
             Dataplane.detect_protocol new_net )
         with
        | `Bgp, `Bgp -> `Bgp
        | _ -> `Multi)
  in
  let node_change = List.exists Delta.is_node_change deltas in
  let has_topo = List.exists Delta.is_topology deltas in
  (* reuse needs one signature cache compatible with BOTH networks so
     BDD ids are directly comparable; failing that, every class is dirty
     (a full rebuild — correct, just not incremental) *)
  let cache =
    match cache with
    | Some c
      when Sig_cache.compatible c old_net && Sig_cache.compatible c new_net
      ->
      Some c
    | Some _ -> None
    | None ->
      let c = Sig_cache.create old_net in
      if Sig_cache.compatible c new_net then Some c else None
  in
  let full_rebuild = node_change || cache = None in
  let touched =
    List.concat_map (Delta.touched new_net) deltas
    |> List.sort_uniq Stdlib.compare
  in
  let old_ecs = Ecs.compute old_net and new_ecs = Ecs.compute new_net in
  let old_by_prefix = Hashtbl.create 64 in
  List.iter
    (fun (ec : Ecs.ec) -> Hashtbl.replace old_by_prefix ec.Ecs.ec_prefix ec)
    old_ecs;
  let new_prefixes =
    List.fold_left
      (fun acc (ec : Ecs.ec) -> ec.Ecs.ec_prefix :: acc)
      [] new_ecs
  in
  (* classes only the old network had: their entries disappear *)
  let removed_ecs =
    List.filter
      (fun (ec : Ecs.ec) ->
        not (List.exists (Prefix.equal ec.Ecs.ec_prefix) new_prefixes))
      old_ecs
  in
  let reused = ref 0 and recompiled = ref 0 and anycast = ref 0 in
  let changes = ref [] and unknown = ref [] in
  let deg_info = ref None in
  let work ec_prefix old_ec new_ec =
    match !deg_info with
    | Some _ ->
      (* budget already exhausted: everything further is unknown *)
      unknown := ec_prefix :: !unknown
    | None -> (
      try
        match (entries_of ?protocol ?budget old_net old_ec,
               entries_of ?protocol ?budget new_net new_ec)
        with
        | `Entries olds, `Entries news ->
          incr recompiled;
          changes := List.rev_append (diff_class ec_prefix olds news) !changes
        | _ -> unknown := ec_prefix :: !unknown
      with Budget.Exhausted info ->
        deg_info := Some info;
        unknown := ec_prefix :: !unknown)
  in
  List.iter
    (fun (ec : Ecs.ec) ->
      match ec.Ecs.ec_origins with
      | [ _ ] -> (
        let old_ec = Hashtbl.find_opt old_by_prefix ec.Ecs.ec_prefix in
        let same_origins =
          match old_ec with
          | Some o -> o.Ecs.ec_origins = ec.Ecs.ec_origins
          | None -> false
        in
        match (cache, old_ec) with
        | Some cache, Some _
          when same_origins && (not full_rebuild) && (not has_topo)
               && Incr.solution_unchanged ~old_net ~new_net ~cache ~touched
                    ec ->
          incr reused
        | _ -> work ec.Ecs.ec_prefix old_ec (Some ec))
      | _ -> incr anycast)
    new_ecs;
  List.iter
    (fun (ec : Ecs.ec) ->
      match ec.Ecs.ec_origins with
      | [ _ ] -> work ec.Ecs.ec_prefix (Some ec) None
      | _ -> incr anycast)
    removed_ecs;
  let changes =
    List.sort
      (fun a b ->
        match Prefix.compare a.c_prefix b.c_prefix with
        | 0 -> Stdlib.compare a.c_router b.c_router
        | c -> c)
      !changes
  in
  let unknown = List.rev !unknown in
  let degradation =
    match (unknown, !deg_info) with
    | [], _ -> None
    | _ :: _, info ->
      let info =
        match info with
        | Some i -> i
        | None ->
          (* unknown without exhaustion: a diverging control plane *)
          Budget.info
            (Option.value budget ~default:Budget.infinite)
            ~phase:"dataplane-diff" ~note:"control plane diverged" ()
      in
      Some
        {
          Bonsai_api.deg_info = info;
          deg_completed = !reused + !recompiled;
          deg_total = !reused + !recompiled + List.length unknown;
        }
  in
  {
    dp_deltas = deltas;
    dp_classes = !reused + !recompiled + List.length unknown;
    dp_reused = !reused;
    dp_recompiled = !recompiled;
    dp_anycast = !anycast;
    dp_full_rebuild = full_rebuild;
    dp_changes = changes;
    dp_unknown = unknown;
    dp_degradation = degradation;
    dp_time_s = Timing.now () -. t0;
  }

let kind_string = function
  | Added -> "added"
  | Removed -> "removed"
  | Modified -> "modified"

let counts r =
  List.fold_left
    (fun (a, rm, m) c ->
      match c.c_kind with
      | Added -> (a + 1, rm, m)
      | Removed -> (a, rm + 1, m)
      | Modified -> (a, rm, m + 1))
    (0, 0, 0) r.dp_changes

let changes_json_fields ~old_net ~new_net r =
  let names (net : Device.network) us =
    Json.List
      (List.map (fun u -> Json.String (Graph.name net.Device.graph u)) us)
  in
  let entry net = function
    | None -> Json.Null
    | Some (e : Dataplane.entry) ->
      Json.Obj
        [
          ("next_hops", names net e.Dataplane.e_next_hops);
          ("acl_dropped", names net e.Dataplane.e_acl_dropped);
        ]
  in
  let change c =
    let router_net = match c.c_kind with Removed -> old_net | _ -> new_net in
    Json.Obj
      [
        ("router", Json.String (Graph.name router_net.Device.graph c.c_router));
        ("prefix", Json.String (Prefix.to_string c.c_prefix));
        ("kind", Json.String (kind_string c.c_kind));
        ("old", entry old_net c.c_old);
        ("new", entry new_net c.c_new);
      ]
  in
  let added, removed, modified = counts r in
  [
    ("added", Json.Int added);
    ("removed", Json.Int removed);
    ("modified", Json.Int modified);
    ("changes", Json.List (List.map change r.dp_changes));
    ( "unknown",
      Json.List
        (List.map (fun p -> Json.String (Prefix.to_string p)) r.dp_unknown) );
  ]
