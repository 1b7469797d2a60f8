type state = {
  mutable net : Device.network;
  mutable cache : Sig_cache.t;
  mutable results : Bonsai_api.ec_result list;
  mutable skipped_anycast : int;
  mutable bdd_time_s : float;
  mutable degradation : Bonsai_api.degradation option;
}

type report = {
  r_ecs : int;
  r_reused : int;
  r_seeded : int;
  r_scratch : int;
  r_full_rebuild : bool;
  r_cache_hits : int;
  r_cache_misses : int;
  r_time_s : float;
  r_degradation : Bonsai_api.degradation option;
}

type reuse = {
  compatible : bool;
  full_rebuild : bool;
  unchanged : old:Ecs.ec -> Ecs.ec -> bool;
}

let reuse ~cache ~old_net ~new_net deltas =
  let compatible =
    Sig_cache.compatible cache old_net && Sig_cache.compatible cache new_net
  in
  (* the solver breaks ties by node order: under a renumbering, equal
     configurations may still forward differently *)
  let full_rebuild =
    List.exists Delta.is_node_change deltas
    || (not compatible)
    || Option.is_some (Delta.id_map old_net new_net)
  in
  let unchanged =
    if full_rebuild || List.exists Delta.is_topology deltas then
      fun ~old:_ _ -> false
    else
      let touched =
        List.concat_map (Delta.touched new_net) deltas
        |> List.sort_uniq Int.compare
      in
      (* Clean-class check: every refinement input is unchanged.
         Signatures of the old and the new network are read through the
         SAME cache, so BDD ids are directly comparable; only edges
         incident to touched routers are queried (a signature depends
         only on its two endpoints' configurations). *)
      fun ~old (ec : Ecs.ec) ->
        let dest = ec.Ecs.ec_prefix in
        List.equal Int.equal old.Ecs.ec_origins ec.Ecs.ec_origins
        && (not (List.mem (Ecs.single_origin ec) touched))
        (* signatures are local to their endpoints ONLY while the
           class's OSPF-liveness (a whole-network property) is stable
           across the delta; a flip changes signatures on OSPF edges
           anywhere *)
        && Bool.equal
             (Compile.ospf_live old_net ~dest)
             (Compile.ospf_live new_net ~dest)
        &&
        let rm_bdd = Sig_cache.rm_bdd cache ~dest in
        let signature (net : Device.network) =
          let t =
            Compile.signature_table ~universe:(Sig_cache.universe cache)
              ~rm_bdd net ~dest
          in
          fun u v ->
            let e = Graph.edge_index net.Device.graph u v in
            t.Compile.signature
              (if e < 0 then t.Compile.no_edge else t.Compile.sid e)
        in
        let sig_old = signature old_net and sig_new = signature new_net in
        List.for_all
          (fun u ->
            List.equal Int.equal
              (Bonsai_api.effective_prefs old_net ec u)
              (Bonsai_api.effective_prefs new_net ec u)
            && Array.for_all
                 (fun v ->
                   Compile.signature_equal (sig_old u v) (sig_new u v)
                   && Compile.signature_equal (sig_old v u) (sig_new v u))
                 (Graph.succ new_net.Device.graph u))
          touched
  in
  { compatible; full_rebuild; unchanged }

let validate net =
  match Device.validate net with
  | Ok () -> ()
  | Error m -> Bonsai_error.error (Bonsai_error.Compile_error m)

(* Moves [st] to [net'], the network [deltas] lead to from [st.net],
   through the one loop ([Bonsai_api.compress_classes]): the worker
   reuses, seeds or recomputes the first class of each key against the
   signature cache, and the loop hands its row to the others. *)
let recompress_onto ~budget st deltas net' =
  let t0 = Timing.now () in
  validate net';
  let decision = reuse ~cache:st.cache ~old_net:st.net ~new_net:net' deltas in
  let full = decision.full_rebuild in
  let cache, bdd_time_s =
    if decision.compatible then (st.cache, st.bdd_time_s)
    else Timing.time (fun () -> Sig_cache.create net')
  in
  let hits0, misses0 = Sig_cache.stats cache in
  let singles, anycast = List.partition Ecs.is_single_origin (Ecs.compute net') in
  let seeded = ref 0 and scratch = ref 0 in
  (* a kernel run, counted as seeded or scratch once it completes *)
  let kernel count ?seed (ec : Ecs.ec) =
    let r =
      Bonsai_api.compress_ec_exn ~universe:(Sig_cache.universe cache)
        ~rm_bdd:(Sig_cache.rm_bdd cache ~dest:ec.Ecs.ec_prefix)
        ?seed ~budget net' ec
    in
    incr count;
    r
  in
  let from_scratch ec = kernel scratch ec in
  let worker =
    if full then from_scratch
    else begin
      let prefs_trivial = Bonsai_api.no_lp_no_redistribute net' in
      let old_by_prefix = Hashtbl.create 64 in
      List.iter
        (fun (r : Bonsai_api.ec_result) ->
          Hashtbl.replace old_by_prefix r.Bonsai_api.ec.Ecs.ec_prefix r)
        st.results;
      fun ec ->
        match Hashtbl.find_opt old_by_prefix ec.Ecs.ec_prefix with
        | Some old_r
          when (not old_r.Bonsai_api.degraded)
               && decision.unchanged ~old:old_r.Bonsai_api.ec ec ->
          old_r
        | Some old_r
          when (not old_r.Bonsai_api.degraded)
               && old_r.Bonsai_api.ec.Ecs.ec_origins = ec.Ecs.ec_origins
               && Bonsai_api.ec_seedable ~prefs_trivial net' ec ->
          let seed =
            Union_split_find.of_class_array
              old_r.Bonsai_api.abstraction.Abstraction.group_of
          in
          kernel seeded ~seed ec
        | _ -> from_scratch ec
    end
  in
  let results, degradation = Bonsai_api.compress_classes net' singles worker in
  let completed =
    match degradation with
    | None -> List.length singles
    | Some d -> d.Bonsai_api.deg_completed
  in
  let hits1, misses1 = Sig_cache.stats cache in
  st.net <- net';
  st.cache <- cache;
  st.results <- results;
  st.skipped_anycast <- List.length anycast;
  st.bdd_time_s <- bdd_time_s;
  st.degradation <- degradation;
  {
    r_ecs = List.length singles;
    r_reused = completed - !seeded - !scratch;
    r_seeded = !seeded;
    r_scratch = !scratch;
    r_full_rebuild = full;
    r_cache_hits = hits1 - hits0;
    r_cache_misses = misses1 - misses0;
    r_time_s = Timing.now () -. t0;
    r_degradation = degradation;
  }

(* A compression from nothing: the state starts with no rows, so the
   loop computes every class from scratch. *)
let init ?(budget = Budget.infinite) (net : Device.network) =
  Bonsai_error.protect @@ fun () ->
  validate net;
  let cache, bdd_time_s = Timing.time (fun () -> Sig_cache.create net) in
  let st =
    { net; cache; results = []; skipped_anycast = 0; bdd_time_s;
      degradation = None }
  in
  let _ : report = recompress_onto ~budget st [] net in
  st

let recompress ?(budget = Budget.infinite) st deltas =
  Bonsai_error.protect @@ fun () ->
  let net' =
    try Delta.apply st.net deltas
    with Invalid_argument m ->
      Bonsai_error.error (Bonsai_error.Compile_error m)
  in
  recompress_onto ~budget st deltas net'

(* The parsed network itself, not the deltas replayed onto the old one:
   the replay keeps the old router numbering, and the concrete solver
   breaks ties by node id. *)
let recompress_net ?(budget = Budget.infinite) st net' =
  Bonsai_error.protect @@ fun () ->
  let deltas = Delta.diff st.net net' in
  (deltas, recompress_onto ~budget st deltas net')

let copy st = { st with net = st.net }
let network st = st.net
let sig_cache st = st.cache

let summary st =
  {
    Bonsai_api.net = st.net;
    bdd_time_s = st.bdd_time_s;
    results = st.results;
    skipped_anycast = st.skipped_anycast;
    degradation = st.degradation;
  }

let cache_stats st = Sig_cache.stats st.cache
let bdd_stats st = Sig_cache.bdd_stats st.cache

(* A state read back from a checkpoint (Marshal) carries copies of
   whatever [Budget.t] values were installed in its BDD managers; a copy
   of [Budget.infinite] is no longer physically equal to it, so the
   managers would pay per-tick bookkeeping forever (and report nonsense
   elapsed times from a dead process's start stamp). Re-install the real
   shared [infinite] everywhere. *)
let rearm st =
  Bdd.set_budget (Sig_cache.universe st.cache).Policy_bdd.man Budget.infinite;
  List.iter
    (fun (r : Bonsai_api.ec_result) ->
      Bdd.set_budget
        r.Bonsai_api.abstraction.Abstraction.universe.Policy_bdd.man
        Budget.infinite)
    st.results

let report_json_fields ~deltas r =
  [
    ("identical", Json.Bool (List.is_empty deltas));
    ("deltas", Json.Int (List.length deltas));
    ( "delta_list",
      Json.List (List.map (fun d -> Json.String (Delta.to_string d)) deltas) );
    ("ecs", Json.Int r.r_ecs);
    ("reused", Json.Int r.r_reused);
    ("seeded", Json.Int r.r_seeded);
    ("scratch", Json.Int r.r_scratch);
    ("full_rebuild", Json.Bool r.r_full_rebuild);
    ("degraded", Json.Bool (Option.is_some r.r_degradation));
    ("degradation", Bonsai_api.degradation_to_json r.r_degradation);
  ]
