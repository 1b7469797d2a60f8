type state = {
  mutable net : Device.network;
  mutable cache : Sig_cache.t;
  mutable results : Bonsai_api.ec_result list;
  mutable skipped_anycast : int;
  mutable bdd_time_s : float;
  mutable degradation : Bonsai_api.degradation option;
  pinned_names : string list;
  cache_cap : int option;
}

type report = {
  r_deltas : int;
  r_ecs : int;
  r_reused : int;
  r_seeded : int;
  r_scratch : int;
  r_full_rebuild : bool;
  r_recertified : int;
  r_recert_refuted : int;
  r_cache_hits : int;
  r_cache_misses : int;
  r_time_s : float;
  r_degradation : Bonsai_api.degradation option;
}

let resolve_pins (net : Device.network) names =
  List.filter_map (Graph.find_by_name net.Device.graph) names
  |> List.sort_uniq Int.compare

let single_origin_ec (ec : Ecs.ec) =
  match ec.Ecs.ec_origins with [ _ ] -> true | _ -> false

let compute_scratch ~cache ~pinned ~budget net (ec : Ecs.ec) =
  Bonsai_api.compress_ec_exn
    ~universe:(Sig_cache.universe cache)
    ~rm_bdd:(Sig_cache.rm_bdd cache ~dest:ec.Ecs.ec_prefix)
    ~pinned ~budget net ec

let identity_ec ~identity_of (ec : Ecs.ec) =
  let t0 = Timing.now () in
  let abstraction =
    Lazy.force identity_of ~dest:(Ecs.single_origin ec)
      ~dest_prefix:ec.Ecs.ec_prefix
  in
  {
    Bonsai_api.ec;
    abstraction;
    refine_stats = { Refine.iterations = 0; splits = 0 };
    time_s = Timing.now () -. t0;
    degraded = true;
  }

(* Sequential per-class loop with the same degradation contract as
   [Bonsai_api.compress]: the class that exhausts the budget and every
   remaining class fall back to the identity abstraction. *)
let run_ecs ~budget:_ net ecs worker =
  let total = List.length ecs in
  let identity_of =
    lazy
      (Abstraction.identity_family net
         ~universe:(Policy_bdd.universe_of_network net))
  in
  let acc = ref [] and degradation = ref None in
  let rec go = function
    | [] -> ()
    | ec :: rest -> (
      match worker ec with
      | r ->
        acc := r :: !acc;
        go rest
      | exception Budget.Exhausted info ->
        degradation :=
          Some
            {
              Bonsai_api.deg_info = info;
              deg_completed = List.length !acc;
              deg_total = total;
            };
        List.iter
          (fun ec -> acc := identity_ec ~identity_of ec :: !acc)
          (ec :: rest))
  in
  go ecs;
  (List.rev !acc, !degradation)

(* ------------------------------------------------------------------ *)
(* Seeded refinement. [Refine.find_partition ~seed] only splits, so from
   the stale partition it reaches the coarsest STABLE refinement F of the
   seed under the new signatures — possibly finer than the true coarsest
   stable partition P' when the change allowed classes to re-merge. F
   being stable, each of its classes has a uniform signature key, so we
   run the same refinement on the QUOTIENT (one element per F-class, key
   taken from a representative member) and merge F-classes that share a
   quotient block. Both the lifted quotient fixpoint and P' are the
   coarsest stable coarsening of F refining {dest}|{pins}|rest, hence
   equal — the seeded result matches from-scratch exactly (DESIGN.md
   §12). Pinned classes enter the quotient as singletons and are never
   merged. *)
let quotient_merge part (net : Device.network) ~dest ~signature ~pinned
    ~budget =
  let g = net.Device.graph in
  let cls_ids = Union_split_find.class_ids part in
  let m = List.length cls_ids in
  if m > 1 then begin
    let idx_of = Hashtbl.create m in
    let rep = Array.make m 0 in
    List.iteri
      (fun i c ->
        Hashtbl.replace idx_of c i;
        rep.(i) <- List.hd (Union_split_find.members part c))
      cls_ids;
    let q = Union_split_find.create m in
    let qidx u = Hashtbl.find idx_of (Union_split_find.find part u) in
    ignore (Union_split_find.pin q (qidx dest));
    List.iter (fun u -> ignore (Union_split_find.pin q (qidx u))) pinned;
    let key i =
      let u = rep.(i) in
      Array.to_list (Graph.succ g u)
      |> List.map (fun v ->
             (signature u v, signature v u, Union_split_find.find q (qidx v)))
      |> List.sort_uniq compare
    in
    let changed = ref true in
    while !changed do
      Budget.tick budget ~phase:"quotient-merge";
      changed := Union_split_find.refine_all q ~key
    done;
    Union_split_find.iter_classes q (fun _ block ->
        match block with
        | [] | [ _ ] -> ()
        | i0 :: rest ->
          List.iter
            (fun i -> ignore (Union_split_find.merge part rep.(i0) rep.(i)))
            rest)
  end

let seeded_compress ~cache ~pinned ~budget net (ec : Ecs.ec)
    (old_r : Bonsai_api.ec_result) =
  let t0 = Timing.now () in
  let dest = Ecs.single_origin ec in
  let universe = Sig_cache.universe cache in
  let rm_bdd = Sig_cache.rm_bdd cache ~dest:ec.Ecs.ec_prefix in
  Bdd.set_budget universe.Policy_bdd.man budget;
  Fun.protect ~finally:(fun () ->
      Bdd.set_budget universe.Policy_bdd.man Budget.infinite)
  @@ fun () ->
  let _, signature =
    Compile.edge_signatures ~universe ~rm_bdd net ~dest:ec.Ecs.ec_prefix
  in
  (* seedability guarantees every node sits at the default preference *)
  let prefs _ = [ Bgp.default_lp ] in
  let live_self u v = (signature u v).Compile.sig_static in
  let seed =
    Union_split_find.of_class_array
      old_r.Bonsai_api.abstraction.Abstraction.group_of
  in
  let part, refine_stats =
    Refine.find_partition net ~dest ~live_self ~pinned ~seed ~budget
      ~signature ~prefs
  in
  quotient_merge part net ~dest ~signature ~pinned ~budget;
  let abstraction =
    Abstraction.make net ~dest ~dest_prefix:ec.Ecs.ec_prefix ~universe
      ~partition:part
      ~copies:(fun _ -> 1)
  in
  {
    Bonsai_api.ec;
    abstraction;
    refine_stats;
    time_s = Timing.now () -. t0;
    degraded = false;
  }

(* ------------------------------------------------------------------ *)
(* Seedability: the seeded path replays refinement with the trivial
   preference function and one abstract copy per class, which is only
   the from-scratch behavior when (a) every router's effective
   preference set is exactly {default} and (b) no router has a static
   route covering the destination (so live-self-edge peeling is a
   no-op). *)

let no_lp_no_redistribute (net : Device.network) =
  let clause_sets_lp (cl : Route_map.clause) =
    List.exists
      (function Route_map.Set_local_pref _ -> true | _ -> false)
      cl.Route_map.actions
  in
  let rm_sets_lp = function
    | None -> false
    | Some rm -> List.exists clause_sets_lp rm
  in
  Array.for_all
    (fun (r : Device.router) ->
      r.Device.redistribute = []
      && List.for_all
           (fun (_, (nb : Device.bgp_neighbor)) ->
             not (rm_sets_lp nb.Device.import_rm))
           r.Device.bgp_neighbors)
    net.Device.routers

let ec_seedable ~prefs_trivial (net : Device.network) (ec : Ecs.ec) =
  let statics_clear =
    Array.for_all
      (fun (r : Device.router) ->
        r.Device.static_routes = []
        || Device.static_next_hops r ~dest:ec.Ecs.ec_prefix = [])
      net.Device.routers
  in
  statics_clear
  && (prefs_trivial
     ||
     let n = Array.length net.Device.routers in
     let ok = ref true in
     for u = 0 to n - 1 do
       if !ok && Bonsai_api.effective_prefs net ec u <> [ Bgp.default_lp ]
       then ok := false
     done;
     !ok)

(* Clean-class check: every refinement input is unchanged. Signatures of
   the old and the new network are compared through the SAME cache, so
   BDD ids are directly comparable; only edges incident to touched
   routers are queried (a signature depends only on its two endpoints'
   configurations). *)
let solution_unchanged ~old_net ~new_net ~cache ~touched (ec : Ecs.ec) =
  let dest = Ecs.single_origin ec in
  (not (List.mem dest touched))
  (* signatures are local to their endpoints ONLY while the class's
     OSPF-liveness (a whole-network property) is stable across the
     delta; a flip changes signatures on OSPF edges anywhere *)
  && Compile.ospf_live old_net ~dest:ec.Ecs.ec_prefix
     = Compile.ospf_live new_net ~dest:ec.Ecs.ec_prefix
  &&
  let universe = Sig_cache.universe cache in
  let rm_bdd = Sig_cache.rm_bdd cache ~dest:ec.Ecs.ec_prefix in
  let _, sig_old =
    Compile.edge_signatures ~universe ~rm_bdd old_net ~dest:ec.Ecs.ec_prefix
  in
  let _, sig_new =
    Compile.edge_signatures ~universe ~rm_bdd new_net ~dest:ec.Ecs.ec_prefix
  in
  List.for_all
    (fun u ->
      Bonsai_api.effective_prefs old_net ec u
      = Bonsai_api.effective_prefs new_net ec u
      && Array.for_all
           (fun v -> sig_old u v = sig_new u v && sig_old v u = sig_new v u)
           (Graph.succ new_net.Device.graph u))
    touched

let unchanged_ec ~old_net ~new_net ~cache ~touched (ec : Ecs.ec)
    (old_r : Bonsai_api.ec_result) =
  old_r.Bonsai_api.ec.Ecs.ec_origins = ec.Ecs.ec_origins
  && solution_unchanged ~old_net ~new_net ~cache ~touched ec

(* ------------------------------------------------------------------ *)

let init ?(pinned = []) ?cache_cap ?universe ?(budget = Budget.infinite)
    (net : Device.network) =
  Bonsai_error.protect @@ fun () ->
  (match Device.validate net with
  | Ok () -> ()
  | Error m -> Bonsai_error.error (Bonsai_error.Compile_error m));
  let cache, bdd_time_s =
    Timing.time (fun () -> Sig_cache.create ?max_entries:cache_cap ?universe net)
  in
  let n = Graph.n_nodes net.Device.graph in
  let pinned_names =
    List.filter_map
      (fun i ->
        if i >= 0 && i < n then Some (Graph.name net.Device.graph i) else None)
      pinned
    |> List.sort_uniq String.compare
  in
  let pins = resolve_pins net pinned_names in
  let singles, anycast =
    List.partition single_origin_ec (Ecs.compute net)
  in
  let results, degradation =
    run_ecs ~budget net singles (fun ec ->
        compute_scratch ~cache ~pinned:pins ~budget net ec)
  in
  {
    net;
    cache;
    results;
    skipped_anycast = List.length anycast;
    bdd_time_s;
    degradation;
    pinned_names;
    cache_cap;
  }

let recompress ?(budget = Budget.infinite) ?recertify st deltas =
  Bonsai_error.protect @@ fun () ->
  let t0 = Timing.now () in
  let old_net = st.net in
  let net' =
    try Delta.apply old_net deltas
    with Invalid_argument m ->
      Bonsai_error.error (Bonsai_error.Compile_error m)
  in
  (match Device.validate net' with
  | Ok () -> ()
  | Error m -> Bonsai_error.error (Bonsai_error.Compile_error m));
  let node_change = List.exists Delta.is_node_change deltas in
  let compatible = Sig_cache.compatible st.cache net' in
  let full = node_change || not compatible in
  let cache, bdd_time_s =
    if compatible then (st.cache, st.bdd_time_s)
    else
      let c, t =
        Timing.time (fun () ->
            Sig_cache.create ?max_entries:st.cache_cap net')
      in
      (c, t)
  in
  let hits0, misses0 = Sig_cache.stats cache in
  let pinned = resolve_pins net' st.pinned_names in
  let singles, anycast =
    List.partition single_origin_ec (Ecs.compute net')
  in
  let reused = ref 0 and seeded = ref 0 and scratch = ref 0 in
  let recertified = ref 0 and recert_refuted = ref 0 in
  let worker =
    if full then fun ec ->
      let r = compute_scratch ~cache ~pinned ~budget net' ec in
      incr scratch;
      r
    else begin
      let touched =
        List.concat_map (Delta.touched net') deltas
        |> List.sort_uniq Int.compare
      in
      let has_topo = List.exists Delta.is_topology deltas in
      let prefs_trivial = no_lp_no_redistribute net' in
      let old_by_prefix = Hashtbl.create 64 in
      List.iter
        (fun (r : Bonsai_api.ec_result) ->
          Hashtbl.replace old_by_prefix r.Bonsai_api.ec.Ecs.ec_prefix r)
        st.results;
      (* the audit must not share BDD state with the engine under audit:
         one fresh universe per recompression, built only if a reused or
         seeded candidate actually reaches the checker *)
      let audit_universe = lazy (Policy_bdd.universe_of_network net') in
      let recert ec counter (r : Bonsai_api.ec_result) =
        match recertify with
        | None ->
          incr counter;
          r
        | Some audit -> (
          match
            Certify.check_result ~budget
              ~universe:(Lazy.force audit_universe) ~audit net' r
          with
          | Certify.Certified _ ->
            incr counter;
            incr recertified;
            r
          | Certify.Audit_incomplete _ ->
            incr counter;
            r
          | Certify.Refuted _ ->
            incr recert_refuted;
            let r = compute_scratch ~cache ~pinned ~budget net' ec in
            incr scratch;
            r)
      in
      fun ec ->
        match Hashtbl.find_opt old_by_prefix ec.Ecs.ec_prefix with
        | Some old_r
          when (not old_r.Bonsai_api.degraded)
               && (not has_topo)
               && unchanged_ec ~old_net ~new_net:net' ~cache ~touched ec
                    old_r ->
          recert ec reused old_r
        | Some old_r
          when (not old_r.Bonsai_api.degraded)
               && old_r.Bonsai_api.ec.Ecs.ec_origins = ec.Ecs.ec_origins
               && ec_seedable ~prefs_trivial net' ec ->
          recert ec seeded
            (seeded_compress ~cache ~pinned ~budget net' ec old_r)
        | _ ->
          let r = compute_scratch ~cache ~pinned ~budget net' ec in
          incr scratch;
          r
    end
  in
  let results, degradation = run_ecs ~budget net' singles worker in
  let hits1, misses1 = Sig_cache.stats cache in
  st.net <- net';
  st.cache <- cache;
  st.results <- results;
  st.skipped_anycast <- List.length anycast;
  st.bdd_time_s <- bdd_time_s;
  st.degradation <- degradation;
  {
    r_deltas = List.length deltas;
    r_ecs = List.length singles;
    r_reused = !reused;
    r_seeded = !seeded;
    r_scratch = !scratch;
    r_full_rebuild = full;
    r_recertified = !recertified;
    r_recert_refuted = !recert_refuted;
    r_cache_hits = hits1 - hits0;
    r_cache_misses = misses1 - misses0;
    r_time_s = Timing.now () -. t0;
    r_degradation = degradation;
  }

let recompress_net ?budget ?recertify st net' =
  let deltas = Delta.diff st.net net' in
  match recompress ?budget ?recertify st deltas with
  | Ok r -> Ok (deltas, r)
  | Error e -> Error e

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
let cache_evictions st = Sig_cache.evictions st.cache
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

let reuse_json_fields r =
  [
    ("reused", Json.Int r.r_reused);
    ("seeded", Json.Int r.r_seeded);
    ("scratch", Json.Int r.r_scratch);
    ("full_rebuild", Json.Bool r.r_full_rebuild);
  ]

let recert_json_fields r =
  [
    ("recertified", Json.Int r.r_recertified);
    ("recert_refuted", Json.Int r.r_recert_refuted);
  ]

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>deltas applied: %d@,\
     classes: %d (%d reused, %d seeded, %d scratch)%s@,\
     signature cache: %d hits, %d misses@,\
     time: %.3fs@]"
    r.r_deltas r.r_ecs r.r_reused r.r_seeded r.r_scratch
    (if r.r_full_rebuild then " [full rebuild]" else "")
    r.r_cache_hits r.r_cache_misses r.r_time_s;
  if r.r_recertified > 0 || r.r_recert_refuted > 0 then
    Format.fprintf ppf "@,re-certified: %d (%d refuted, recomputed)"
      r.r_recertified r.r_recert_refuted;
  match r.r_degradation with
  | None -> ()
  | Some d -> Format.fprintf ppf "@,%a" Bonsai_api.pp_degradation d
