(* Differential data-plane compilation: exactly which FIB entries does a
   config change touch? Composes the per-class compiler with lib/incr's
   class-reuse decision (Incr.reuse): a class whose SRP inputs
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

let changed r = not (List.is_empty r.dp_changes)

(* Diff one class's per-router entries. Routers pair by name: [to_old]
   maps the new network's ids to the old one's (-1: only in the new),
   [None] when both number their routers alike. *)
let diff_class ~to_old prefix old_entries new_entries =
  let change u c_kind c_old c_new =
    { c_router = u; c_prefix = prefix; c_kind; c_old; c_new }
  in
  let old_id = match to_old with None -> Fun.id | Some m -> Array.get m in
  let sorted l = List.sort Int.compare l in
  let same_hops olds news =
    List.equal Int.equal (sorted olds) (sorted (List.map old_id news))
  in
  let olds = Hashtbl.create 64 in
  List.iter (fun (u, e) -> Hashtbl.replace olds u e) old_entries;
  let changes =
    List.filter_map
      (fun (u', (e' : Dataplane.entry)) ->
        let u = old_id u' in
        match Hashtbl.find_opt olds u with
        | None -> Some (change u' Added None (Some e'))
        | Some (e : Dataplane.entry) ->
          Hashtbl.remove olds u;
          if
            same_hops e.Dataplane.e_next_hops e'.Dataplane.e_next_hops
            && same_hops e.Dataplane.e_acl_dropped e'.Dataplane.e_acl_dropped
          then None
          else Some (change u' Modified (Some e) (Some e')))
      new_entries
  in
  List.filter_map
    (fun (u, e) ->
      if Hashtbl.mem olds u then Some (change u Removed (Some e) None)
      else None)
    old_entries
  @ changes

let entries_of ?budget model net = function
  | None -> `Entries []
  | Some ec -> (
    match Dataplane.compile_ec ?budget model net ec with
    | `Compiled cf -> `Entries cf.Dataplane.cf_entries
    | `Unsolved -> `Unsolved
    | `Anycast -> `Entries [])

let run ?budget ?cache ~(old_net : Device.network)
    ~(new_net : Device.network) (deltas : Delta.t list) =
  Bonsai_error.protect @@ fun () ->
  let t0 = Timing.now () in
  (* either side multi-protocol ⇒ compile both under [Multi] so the two
     FIBs are comparable *)
  let (Compile.Model model) =
    match (Compile.model old_net, Compile.model new_net) with
    | Compile.Model Compile.Bgp, Compile.Model Compile.Bgp ->
      Compile.Model Compile.Bgp
    | _ -> Compile.Model Compile.Multi
  in
  (* reuse needs one signature cache compatible with BOTH networks so
     BDD ids are directly comparable; failing that, every class is dirty
     (a full rebuild — correct, just not incremental) *)
  let cache =
    match cache with Some c -> c | None -> Sig_cache.create old_net
  in
  let decision = Incr.reuse ~cache ~old_net ~new_net deltas in
  let to_old = Delta.id_map new_net old_net in
  let old_ecs = Ecs.compute old_net and new_ecs = Ecs.compute new_net in
  let old_by_prefix = Hashtbl.create 64 in
  List.iter
    (fun (ec : Ecs.ec) -> Hashtbl.replace old_by_prefix ec.Ecs.ec_prefix ec)
    old_ecs;
  let new_prefixes = Hashtbl.create 64 in
  List.iter
    (fun (ec : Ecs.ec) -> Hashtbl.replace new_prefixes ec.Ecs.ec_prefix ())
    new_ecs;
  (* classes only the old network had: their entries disappear *)
  let removed_ecs =
    List.filter
      (fun (ec : Ecs.ec) -> not (Hashtbl.mem new_prefixes ec.Ecs.ec_prefix))
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
        match (entries_of ?budget model old_net old_ec,
               entries_of ?budget model new_net new_ec)
        with
        | `Entries olds, `Entries news ->
          incr recompiled;
          changes :=
            List.rev_append (diff_class ~to_old ec_prefix olds news) !changes
        | _ -> unknown := ec_prefix :: !unknown
      with Budget.Exhausted info ->
        deg_info := Some info;
        unknown := ec_prefix :: !unknown)
  in
  List.iter
    (fun (ec : Ecs.ec) ->
      match ec.Ecs.ec_origins with
      | [ _ ] -> (
        match Hashtbl.find_opt old_by_prefix ec.Ecs.ec_prefix with
        | Some old when decision.Incr.unchanged ~old ec -> incr reused
        | old_ec -> work ec.Ecs.ec_prefix old_ec (Some ec))
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
        | 0 -> Int.compare a.c_router b.c_router
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
    dp_full_rebuild = decision.Incr.full_rebuild;
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

let report_json_fields ~old_net ~new_net r =
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
    ("identical", Json.Bool ((not (changed r)) && List.is_empty r.dp_unknown));
    ("changed", Json.Bool (changed r));
    ("deltas", Json.Int (List.length r.dp_deltas));
    ( "delta_list",
      Json.List
        (List.map (fun d -> Json.String (Delta.to_string d)) r.dp_deltas) );
    ("classes", Json.Int r.dp_classes);
    ("reused", Json.Int r.dp_reused);
    ("recompiled", Json.Int r.dp_recompiled);
    ("anycast", Json.Int r.dp_anycast);
    ("full_rebuild", Json.Bool r.dp_full_rebuild);
    ("added", Json.Int added);
    ("removed", Json.Int removed);
    ("modified", Json.Int modified);
    ("changes", Json.List (List.map change r.dp_changes));
    ( "unknown",
      Json.List
        (List.map (fun p -> Json.String (Prefix.to_string p)) r.dp_unknown) );
    ("degraded", Json.Bool (Option.is_some r.dp_degradation));
    ("degradation", Bonsai_api.degradation_to_json r.dp_degradation);
  ]
