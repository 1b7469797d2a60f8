type ec_result = {
  ec : Ecs.ec;
  abstraction : Abstraction.t;
  refine_stats : Refine.stats;
  time_s : float;
  degraded : bool;
}

type degradation = {
  deg_info : Budget.info;
  deg_completed : int;
  deg_total : int;
}

type summary = {
  net : Device.network;
  bdd_time_s : float;
  results : ec_result list;
  skipped_anycast : int;
  degradation : degradation option;
}

let effective_prefs (net : Device.network) (ec : Ecs.ec) u =
  let dest = Ecs.single_origin ec in
  let p = Compile.prefs net ~dest:ec.Ecs.ec_prefix u in
  (* In multi-protocol networks, administrative distance can act as
     one more preference level: when BGP loop prevention rejects a
     router's best BGP route, it can fall back to an OSPF route while
     an identically-configured peer keeps BGP — the same asymmetry
     local preference causes within BGP (section 4.3), so it needs the
     same forall-forall treatment and node splitting. The reflection
     requires the router to (a) run BGP with an OSPF fallback (worse
     administrative distance than eBGP — static routes always win, so
     they cannot flip), (b) redistribute into BGP, (c) sit in the
     destination's IGP region, and (d) have an import that can accept
     the destination back; only then does the sentinel level below
     grow |prefs|. *)
  let r = net.Device.routers.(u) in
  let dest_r = net.Device.routers.(dest) in
  let ospf_fallback = r.Device.ospf_links <> [] in
  let redistributes =
    List.mem Multi.Ospf_into_bgp r.Device.redistribute
    || List.mem Multi.Static_into_bgp r.Device.redistribute
  in
  let same_region =
    ospf_fallback
    && (dest_r.Device.ospf_links = []
       || dest_r.Device.ospf_area = r.Device.ospf_area)
  in
  let import_could_accept =
    r.Device.bgp_neighbors <> []
    && List.exists
         (fun (_, (nb : Device.bgp_neighbor)) ->
           match nb.import_rm with
           | None -> true
           | Some rm -> (
             (* first unconditional clause decides; a conditional one
                is conservatively assumed reachable *)
             let scan = function
               | [] -> false (* implicit deny *)
               | (cl : Route_map.clause) :: _ -> (
                 match (cl.conds, cl.verdict) with
                 | [], Route_map.Permit -> true
                 | [], Route_map.Deny -> false
                 | _ :: _, _ -> true (* conditionally reachable *))
             in
             scan (Route_map.relevant rm ~dest:ec.Ecs.ec_prefix)))
         r.Device.bgp_neighbors
  in
  if redistributes && same_region && import_could_accept then -1 :: p else p

let compress_ec_exn ?universe ?rm_bdd ?pinned ?(budget = Budget.infinite)
    (net : Device.network) (ec : Ecs.ec) =
  let dest = Ecs.single_origin ec in
  let t0 = Timing.now () in
  let universe =
    match universe with
    | Some u -> u
    | None -> Policy_bdd.universe_of_network net
  in
  (* The BDD encoding of interface policies is the first phase that can
     blow up; the manager consumes the same budget as the later phases. *)
  Bdd.set_budget universe.Policy_bdd.man budget;
  Fun.protect ~finally:(fun () ->
      Bdd.set_budget universe.Policy_bdd.man Budget.infinite)
  @@ fun () ->
  let universe, signature =
    Compile.edge_signatures ~universe ?rm_bdd net ~dest:ec.Ecs.ec_prefix
  in
  let prefs_memo = Hashtbl.create 64 in
  let prefs u =
    match Hashtbl.find_opt prefs_memo u with
    | Some p -> p
    | None ->
      let p = effective_prefs net ec u in
      Hashtbl.replace prefs_memo u p;
      p
  in
  let live_self u v = (signature u v).Compile.sig_static in
  let partition, refine_stats =
    Refine.find_partition net ~dest ~live_self ?pinned ~budget ~signature
      ~prefs
  in
  let copies m =
    let cls = Union_split_find.find partition m in
    List.length
      (Refine.group_prefs ~prefs (Union_split_find.members partition cls))
  in
  let abstraction =
    Abstraction.make net ~dest ~dest_prefix:ec.Ecs.ec_prefix ~universe
      ~partition ~copies
  in
  { ec; abstraction; refine_stats; time_s = Timing.now () -. t0;
    degraded = false }

let compress_ec ?universe ?rm_bdd ?pinned ?budget (net : Device.network)
    (ec : Ecs.ec) =
  Bonsai_error.protect (fun () ->
      try compress_ec_exn ?universe ?rm_bdd ?pinned ?budget net ec
      with Invalid_argument m ->
        Bonsai_error.error (Bonsai_error.Compile_error m))

let role_partition ?budget (net : Device.network) (ec : Ecs.ec) =
  match compress_ec ?budget net ec with
  | Error _ as e -> e
  | Ok r -> Ok (Array.copy r.abstraction.Abstraction.group_of)

let identity_ec ~identity_of (ec : Ecs.ec) =
  let t0 = Timing.now () in
  let abstraction =
    Lazy.force identity_of ~dest:(Ecs.single_origin ec)
      ~dest_prefix:ec.Ecs.ec_prefix
  in
  {
    ec;
    abstraction;
    refine_stats = { Refine.iterations = 0; splits = 0 };
    time_s = Timing.now () -. t0;
    degraded = true;
  }

let compress_exn ?keep_unmatched_comms ?(stride = 1) ?max_ecs ?(domains = 1)
    ?(budget = Budget.infinite) (net : Device.network) =
  let universe0, bdd_time_s =
    Timing.time (fun () ->
        Policy_bdd.universe_of_network ?keep_unmatched_comms net)
  in
  let ecs = Ecs.compute net in
  let ecs =
    if stride <= 1 then ecs
    else List.filteri (fun i _ -> i mod stride = 0) ecs
  in
  let ecs =
    match max_ecs with
    | None -> ecs
    | Some k -> List.filteri (fun i _ -> i < k) ecs
  in
  let singles, anycast = List.partition (fun ec -> match ec.Ecs.ec_origins with [ _ ] -> true | _ -> false) ecs in
  let skipped_anycast = List.length anycast in
  let run_chunk chunk =
    (* BDD managers are not shared across domains: each worker builds its
       own universe (cheap — it only scans the configurations). *)
    let universe = Policy_bdd.universe_of_network ?keep_unmatched_comms net in
    List.map (fun ec -> compress_ec_exn ~universe net ec) chunk
  in
  if Budget.is_infinite budget then begin
    let results =
      if domains <= 1 then run_chunk singles
      else begin
        let chunks = Array.make domains [] in
        List.iteri
          (fun i ec -> chunks.(i mod domains) <- ec :: chunks.(i mod domains))
          singles;
        let workers =
          Array.map
            (fun chunk ->
              let chunk = List.rev chunk in
              Domain.spawn (fun () -> run_chunk chunk))
            chunks
        in
        Array.to_list workers |> List.concat_map Domain.join
        |> List.sort (fun a b -> Prefix.compare a.ec.Ecs.ec_prefix b.ec.Ecs.ec_prefix)
      end
    in
    { net; bdd_time_s; results; skipped_anycast; degradation = None }
  end
  else begin
    (* Budgeted runs are sequential: degradation needs a well-defined
       "first class that ran out", and the budget is a single mutable
       token not meant to be shared across domains. *)
    let total = List.length singles in
    (* Identity fallbacks use a fresh, un-budgeted universe — the
       budgeted manager may be the very thing that ran out — and share
       one skeleton across all degraded classes. *)
    let identity_of =
      lazy
        (Abstraction.identity_family net
           ~universe:(Policy_bdd.universe_of_network ?keep_unmatched_comms net))
    in
    let acc = ref [] in
    let degradation = ref None in
    let rec go = function
      | [] -> ()
      | ec :: rest -> (
        match compress_ec_exn ~universe:universe0 ~budget net ec with
        | r ->
          acc := r :: !acc;
          go rest
        | exception Budget.Exhausted info ->
          degradation :=
            Some
              {
                deg_info = info;
                deg_completed = List.length !acc;
                deg_total = total;
              };
          List.iter
            (fun ec -> acc := identity_ec ~identity_of ec :: !acc)
            (ec :: rest))
    in
    go singles;
    {
      net;
      bdd_time_s;
      results = List.rev !acc;
      skipped_anycast;
      degradation = !degradation;
    }
  end

let compress ?keep_unmatched_comms ?stride ?max_ecs ?domains ?budget net =
  Bonsai_error.protect (fun () ->
      compress_exn ?keep_unmatched_comms ?stride ?max_ecs ?domains ?budget
        net)

(* --- fault-sound compression (CEGAR repair, lib/repair) -------------- *)

type hardened = {
  h_result : ec_result;
  h_rounds : int;
  h_pins : int list;
  h_counterexamples : int;
  h_scenarios : int;
  h_cache_hits : int;
  h_fallback : fallback;
  h_sound : bool;
}

and fallback = No_fallback | Budget_fallback of Budget.info | Rounds_fallback

type fault_sound_fn =
  ?k:int ->
  ?rounds:int ->
  ?frontier:int ->
  ?samples:int ->
  ?seed:int ->
  ?budget:Budget.t ->
  Device.network ->
  Ecs.ec ->
  (hardened, Bonsai_error.t) result

(* The repair loop needs lib/faults (scenarios, soundness sweeps), which
   sits above this library; Repair (lib/repair) registers the real
   implementation at link time. A library-level forward reference, not a
   per-call hook: any executable linking repro_repair gets the loop. *)
let fault_sound_impl : fault_sound_fn ref =
  ref (fun ?k:_ ?rounds:_ ?frontier:_ ?samples:_ ?seed:_ ?budget:_ _ _ ->
      Error
        (Bonsai_error.Internal
           "compress_fault_sound: repro_repair is not linked (Repair \
            registers the implementation)"))

let register_fault_sound f = fault_sound_impl := f

let compress_fault_sound ?k ?rounds ?frontier ?samples ?seed ?budget net ec
    =
  !fault_sound_impl ?k ?rounds ?frontier ?samples ?seed ?budget net ec

let hardened_ratio h =
  Abstraction.compression_ratio h.h_result.abstraction

let float_stats f s =
  let xs = List.map f s.results in
  match xs with
  | [] -> (0.0, 0.0)
  | _ ->
    let n = float_of_int (List.length xs) in
    let mean = List.fold_left ( +. ) 0.0 xs /. n in
    let var =
      List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. n
    in
    (mean, sqrt var)

let mean_abs_nodes s =
  fst (float_stats (fun r -> float_of_int (Abstraction.n_abstract r.abstraction)) s)

let stddev_abs_nodes s =
  snd (float_stats (fun r -> float_of_int (Abstraction.n_abstract r.abstraction)) s)

let mean_abs_links s =
  fst
    (float_stats
       (fun r -> float_of_int (Graph.n_links r.abstraction.Abstraction.abs_graph))
       s)

let stddev_abs_links s =
  snd
    (float_stats
       (fun r -> float_of_int (Graph.n_links r.abstraction.Abstraction.abs_graph))
       s)

let mean_time_per_ec s = fst (float_stats (fun r -> r.time_s) s)

let roles ?keep_unmatched_comms (net : Device.network) =
  let universe =
    Policy_bdd.universe_of_network ?keep_unmatched_comms net
  in
  (* A route-map's role identity: its BDD when every prefix condition is
     kept (encoded against the whole address space so no clause is
     discarded), paired with the raw prefix-lists it tests — semantically
     equal community/preference behavior collapses, prefix-filter
     differences do not. *)
  let strip_prefix_conds rm =
    List.map
      (fun (cl : Route_map.clause) ->
        {
          cl with
          Route_map.conds =
            List.filter
              (function
                | Route_map.Match_prefix _ -> false
                | Route_map.Match_community _ -> true)
              cl.conds;
        })
      rm
  in
  let prefix_lists rm =
    List.concat_map
      (fun (cl : Route_map.clause) ->
        List.filter_map
          (function
            | Route_map.Match_prefix ps -> Some (List.sort Prefix.compare ps)
            | Route_map.Match_community _ -> None)
          cl.conds)
      rm
  in
  let rm_memo : (Route_map.t option, int * Prefix.t list list) Hashtbl.t =
    Hashtbl.create 64
  in
  let rm_id rm =
    match Hashtbl.find_opt rm_memo rm with
    | Some id -> id
    | None ->
      let id =
        match rm with
        | None -> (Bdd.hash (Policy_bdd.identity universe), [])
        | Some rm ->
          ( Bdd.hash
              (Policy_bdd.encode_route_map universe (strip_prefix_conds rm)
                 ~dest:Prefix.default),
            prefix_lists rm )
      in
      Hashtbl.replace rm_memo rm id;
      id
  in
  (* A role is the *set* of interface policies a router uses (paper §8:
     "unique roles (set of policies)") plus its static routes, ACLs, OSPF
     interface costs and redistributions. Sets, not multisets: a spine with
     twelve identically-configured leaf sessions plays the same role as one
     with twenty. Site-specific numbering (OSPF area ids) is excluded. *)
  let fingerprint (r : Device.router) =
    let bgp =
      List.map
        (fun (_, (nb : Device.bgp_neighbor)) ->
          (rm_id nb.import_rm, rm_id nb.export_rm, nb.ibgp))
        r.bgp_neighbors
      |> List.sort_uniq compare
    in
    let ospf =
      List.map (fun (_, (l : Device.ospf_link)) -> l.cost) r.ospf_links
      |> List.sort_uniq compare
    in
    let acls = List.map snd r.acl_out |> List.sort_uniq compare in
    ( bgp,
      ospf,
      List.sort compare r.static_routes |> List.map fst,
      acls,
      List.sort compare r.redistribute )
  in
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun r -> Hashtbl.replace seen (fingerprint r) ())
    net.routers;
  Hashtbl.length seen

let explain (net : Device.network) (ec : Ecs.ec) u v =
  let r = compress_ec_exn net ec in
  let t = r.abstraction in
  if t.Abstraction.group_of.(u) = t.Abstraction.group_of.(v) then []
  else begin
    let _, signature =
      Compile.edge_signatures ~universe:t.Abstraction.universe net
        ~dest:ec.Ecs.ec_prefix
    in
    let g = net.Device.graph in
    let name = Graph.name g in
    let entries x =
      Array.to_list (Graph.succ g x)
      |> List.map (fun w ->
             (t.Abstraction.group_of.(w), signature x w, signature w x))
      |> List.sort compare
    in
    let eu = entries u and ev = entries v in
    let diff a b = List.filter (fun e -> not (List.mem e b)) a in
    let describe who (grp, out_sig, in_sig) =
      let parts = ref [] in
      let add fmt = Printf.ksprintf (fun s -> parts := s :: !parts) fmt in
      (match out_sig.Compile.sig_ospf with
      | Some (cost, _, _) -> add "OSPF cost %d" cost
      | None -> ());
      if out_sig.Compile.sig_import >= 0 then
        add "BGP session (import policy #%d, export policy #%d%s)"
          out_sig.Compile.sig_import out_sig.Compile.sig_export
          (if out_sig.Compile.sig_ibgp then ", iBGP" else "");
      if not out_sig.Compile.sig_acl then add "ACL denies the destination";
      if out_sig.Compile.sig_static then add "a static route";
      if in_sig.Compile.sig_import >= 0 then
        add "neighbor-side import policy #%d" in_sig.Compile.sig_import;
      Printf.sprintf "%s has an interface towards role %d with %s" who grp
        (match List.rev !parts with
        | [] -> "no protocol"
        | ps -> String.concat ", " ps)
    in
    let prefs_u = Compile.prefs net ~dest:ec.Ecs.ec_prefix u in
    let prefs_v = Compile.prefs net ~dest:ec.Ecs.ec_prefix v in
    let pref_note =
      if prefs_u <> prefs_v then
        [
          Printf.sprintf
            "%s may assign local preferences {%s} but %s {%s}" (name u)
            (String.concat ", " (List.map string_of_int prefs_u))
            (name v)
            (String.concat ", " (List.map string_of_int prefs_v));
        ]
      else []
    in
    pref_note
    @ List.sort_uniq compare (List.map (describe (name u)) (diff eu ev))
    @ List.sort_uniq compare (List.map (describe (name v)) (diff ev eu))
  end

let pp_degradation ppf d =
  Format.fprintf ppf
    "@[<v>DEGRADED: budget exhausted in phase %S after %d ticks%s@,\
     %d/%d destination classes compressed; the rest fall back to the@,\
     identity abstraction (abstract network = concrete network)@]"
    d.deg_info.Budget.phase d.deg_info.Budget.ticks
    (match d.deg_info.Budget.note with
    | None -> ""
    | Some n -> Printf.sprintf " (%s)" n)
    d.deg_completed d.deg_total

let fallback_to_string = function
  | No_fallback -> "none"
  | Budget_fallback _ -> "budget"
  | Rounds_fallback -> "rounds"

let degradation_to_json = function
  | None -> Json.Null
  | Some d ->
    Json.Obj
      [
        ("completed", Json.Int d.deg_completed);
        ("total", Json.Int d.deg_total);
      ]

let ec_result_json_fields r =
  [
    ("destination", Json.String (Prefix.to_string r.ec.Ecs.ec_prefix));
    ("abstract_nodes", Json.Int (Abstraction.n_abstract r.abstraction));
    ( "abstract_links",
      Json.Int (Graph.n_links r.abstraction.Abstraction.abs_graph) );
    ("degraded", Json.Bool r.degraded);
  ]

let pp_summary ppf s =
  let g = s.net.Device.graph in
  Format.fprintf ppf
    "@[<v>nodes=%d links=%d ecs=%d (skipped %d anycast)@,\
     abstract nodes: %.1f ± %.1f, links: %.1f ± %.1f@,\
     compression: %.1fx nodes, %.1fx links@,\
     bdd time: %.2fs, %.3fs per EC@]"
    (Graph.n_nodes g) (Graph.n_links g)
    (List.length s.results)
    s.skipped_anycast (mean_abs_nodes s) (stddev_abs_nodes s)
    (mean_abs_links s) (stddev_abs_links s)
    (float_of_int (Graph.n_nodes g) /. max 1.0 (mean_abs_nodes s))
    (float_of_int (Graph.n_links g) /. max 1.0 (mean_abs_links s))
    s.bdd_time_s (mean_time_per_ec s);
  match s.degradation with
  | None -> ()
  | Some d -> Format.fprintf ppf "@,%a" pp_degradation d
