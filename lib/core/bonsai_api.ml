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
  let import_could_accept () =
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
  if redistributes && same_region && import_could_accept () then -1 :: p
  else p

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
       if !ok && effective_prefs net ec u <> [ Bgp.default_lp ]
       then ok := false
     done;
     !ok)

let compress_ec_exn ?universe ?rm_bdd ?(pinned = []) ?seed
    ?(budget = Budget.infinite) (net : Device.network) (ec : Ecs.ec) =
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
  let table =
    Compile.signature_table ~universe ?rm_bdd net ~dest:ec.Ecs.ec_prefix
  in
  let g = net.Device.graph in
  let n = Graph.n_nodes g in
  (* signatures, and the BDD encoding behind them, are built inside
     refinement, so a budget that runs out while encoding reports the
     partition size reached *)
  let edge_key = Compile.edge_key table g in
  let { Compile.sid; signature; _ } = table in
  let live_self u v =
    let e = Graph.edge_index g u v in
    e >= 0 && (signature (sid e)).Compile.sig_static
  in
  let partition, refine_stats, copies =
    match seed with
    | None ->
      let prefs_memo = Array.make n None in
      let prefs u =
        match prefs_memo.(u) with
        | Some p -> p
        | None ->
          let p = effective_prefs net ec u in
          prefs_memo.(u) <- Some p;
          p
      in
      let partition, stats =
        Refine.partition net ~dest ~live_self ~pinned ~budget ~edge_key ~prefs
      in
      (* The length of [Refine.group_prefs] over m's group, counted
         without building its member list. *)
      let copies m =
        let rec mem p = function
          | [] -> false
          | q :: rest -> Int.equal p q || mem p rest
        in
        let seen = ref [] in
        let rec add = function
          | [] -> ()
          | p :: rest ->
            if not (mem p !seen) then seen := p :: !seen;
            add rest
        in
        Union_split_find.iter_members partition
          (Union_split_find.find partition m)
          (fun u -> add (prefs u));
        List.length !seen
      in
      (partition, stats, copies)
    | Some seed ->
      (* The caller proved the class seedable: every node sits at the
         default preference, so one copy per class. *)
      let partition, stats =
        Refine.partition net ~dest ~live_self ~pinned ~seed ~budget ~edge_key
          ~prefs:(fun _ -> [ Bgp.default_lp ])
      in
      ( Refine.quotient_merge partition net ~dest ~edge_key ~pinned ~budget,
        stats,
        fun _ -> 1 )
  in
  let abstraction =
    Abstraction.make net ~dest ~dest_prefix:ec.Ecs.ec_prefix ~universe
      ~partition ~copies
  in
  { ec; abstraction; refine_stats; time_s = Timing.now () -. t0;
    degraded = false }

let compress_ec ?budget (net : Device.network) (ec : Ecs.ec) =
  Bonsai_error.protect (fun () ->
      try compress_ec_exn ?budget net ec
      with Invalid_argument m ->
        Bonsai_error.error (Bonsai_error.Compile_error m))

(* Identity fallbacks use a fresh, un-budgeted universe — the budgeted
   manager may be the very thing that ran out — and one skeleton shared
   across every class built from the same family. *)
let identity_family ?keep_unmatched_comms net =
  Abstraction.identity_family net
    ~universe:(Policy_bdd.universe_of_network ?keep_unmatched_comms net)

let identity_of family (ec : Ecs.ec) =
  {
    ec;
    abstraction =
      family ~dest:(Ecs.single_origin ec) ~dest_prefix:ec.Ecs.ec_prefix;
    refine_stats = { Refine.iterations = 0; splits = 0; keyed = 0 };
    time_s = 0.0;
    degraded = true;
  }

let identity_result net ec = identity_of (identity_family net) ec

(* One compression per class key: the first class of a key runs [worker],
   each later one takes that row under its own prefix. *)
let compress_classes ?keep_unmatched_comms net ecs worker =
  let family = lazy (identity_family ?keep_unmatched_comms net) in
  let by_key = Hashtbl.create 64 in
  let row (ec : Ecs.ec) =
    let t0 = Timing.now () in
    let prefix = ec.Ecs.ec_prefix in
    let key =
      Compile.class_key net ~dest:(Ecs.single_origin ec) ~dest_prefix:prefix
    in
    match Hashtbl.find_opt by_key key with
    | Some r ->
      { r with ec; time_s = Timing.now () -. t0;
        abstraction = { r.abstraction with Abstraction.dest_prefix = prefix } }
    | None ->
      let r = worker ec in
      Hashtbl.add by_key key r;
      r
  in
  let rec go acc = function
    | [] -> (List.rev acc, None)
    | ec :: rest as todo -> (
      match row ec with
      | r -> go (r :: acc) rest
      | exception Budget.Exhausted info ->
        ( List.rev_append acc
            (List.map (identity_of (Lazy.force family)) todo),
          Some
            { deg_info = info; deg_completed = List.length acc;
              deg_total = List.length ecs } ))
  in
  go [] ecs

let find_result results p =
  List.find_opt (fun r -> Prefix.equal r.ec.Ecs.ec_prefix p) results

let refuse_anycast (ec : Ecs.ec) =
  Bonsai_error.error
    (Bonsai_error.Compile_error
       (Format.asprintf
          "destination class %a has %d origins; per-class commands need \
           a single origin"
          Prefix.pp ec.Ecs.ec_prefix
          (List.length ec.Ecs.ec_origins)))

let refuse_anycasts ecs =
  List.iter
    (fun ec -> if not (Ecs.is_single_origin ec) then refuse_anycast ec)
    ecs

let find_class net p =
  let ec = Ecs.find net p in
  refuse_anycasts [ ec ];
  ec

let compress_exn ?keep_unmatched_comms ?ecs ?(budget = Budget.infinite)
    (net : Device.network) =
  let universe, bdd_time_s =
    Timing.time (fun () ->
        Policy_bdd.universe_of_network ?keep_unmatched_comms net)
  in
  let singles, anycast =
    match ecs with
    | Some ecs ->
      refuse_anycasts ecs;
      (ecs, [])
    | None -> List.partition Ecs.is_single_origin (Ecs.compute net)
  in
  let results, degradation =
    compress_classes ?keep_unmatched_comms net singles
      (compress_ec_exn ~universe ~budget net)
  in
  { net; bdd_time_s; results; skipped_anycast = List.length anycast;
    degradation }

let compress ?keep_unmatched_comms ?ecs ?budget net =
  Bonsai_error.protect (fun () ->
      compress_exn ?keep_unmatched_comms ?ecs ?budget net)

let behaviours s =
  let keys = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let ec = r.ec in
      Hashtbl.replace keys
        (Compile.class_key s.net ~dest:(Ecs.single_origin ec)
           ~dest_prefix:ec.Ecs.ec_prefix)
        ())
    s.results;
  Hashtbl.length keys

let class_summary s p =
  Option.map
    (fun r ->
      let one d = { d with deg_completed = 0; deg_total = 1 } in
      let degradation =
        if r.degraded then Option.map one s.degradation else None
      in
      { s with results = [ r ]; skipped_anycast = 0; degradation })
    (find_result s.results p)

(* Which fallback [Repair.harden] (lib/repair) took, if any. *)
type fallback = No_fallback | Budget_fallback of Budget.info | Rounds_fallback

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

let abs_nodes =
  float_stats (fun r -> float_of_int (Abstraction.n_abstract r.abstraction))

let abs_links =
  float_stats (fun r ->
      float_of_int (Graph.n_links r.abstraction.Abstraction.abs_graph))

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
    let { Compile.sid; signature; no_edge; _ } =
      Compile.signature_table ~universe:t.Abstraction.universe net
        ~dest:ec.Ecs.ec_prefix
    in
    let g = net.Device.graph in
    let name = Graph.name g in
    (* signature ids: within one table, equal ids are equal signatures *)
    let sig_id x w =
      let e = Graph.edge_index g x w in
      if e < 0 then no_edge else sid e
    in
    let entries x =
      Array.to_list (Graph.succ g x)
      |> List.map (fun w -> (t.Abstraction.group_of.(w), sig_id x w, sig_id w x))
    in
    let eu = entries u and ev = entries v in
    let diff a b = List.filter (fun e -> not (List.mem e b)) a in
    let describe who (grp, out_id, in_id) =
      let out_sig = signature out_id and in_sig = signature in_id in
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

let summary_json_fields ?(roles = false) s =
  let g = s.net.Device.graph in
  let class_json r =
    Json.Obj
      ([
         ("destination", Json.String (Prefix.to_string r.ec.Ecs.ec_prefix));
         ("abstract_nodes", Json.Int (Abstraction.n_abstract r.abstraction));
         ( "abstract_links",
           Json.Int (Graph.n_links r.abstraction.Abstraction.abs_graph) );
         ("degraded", Json.Bool r.degraded);
       ]
      @
      if not roles then []
      else
        let t = r.abstraction in
        let role gid members =
          Json.Obj
            [
              ("id", Json.Int gid);
              ("copies", Json.Int t.Abstraction.copies.(gid));
              ( "members",
                Json.List
                  (List.map (fun u -> Json.String (Graph.name g u)) members) );
            ]
        in
        (* the identity fallback has one role per router: listing it is
           noise *)
        let groups = if r.degraded then [||] else t.Abstraction.groups in
        [ ("roles", Json.List (Array.to_list (Array.mapi role groups))) ])
  in
  [
    ("nodes", Json.Int (Graph.n_nodes g));
    ("links", Json.Int (Graph.n_links g));
    ("ecs", Json.Int (List.length s.results));
    ("skipped_anycast", Json.Int s.skipped_anycast);
    ( "degraded",
      Json.Bool
        (Option.is_some s.degradation
        || List.exists (fun r -> r.degraded) s.results) );
    ("degradation", degradation_to_json s.degradation);
    ("classes", Json.List (List.map class_json s.results));
  ]

let pp_summary ppf s =
  let g = s.net.Device.graph in
  let (nodes, nodes_sd), (links, links_sd) = (abs_nodes s, abs_links s) in
  Format.fprintf ppf
    "@[<v>nodes=%d links=%d ecs=%d (skipped %d anycast)@,\
     abstract nodes: %.1f ± %.1f, links: %.1f ± %.1f@,\
     compression: %.1fx nodes, %.1fx links@]"
    (Graph.n_nodes g) (Graph.n_links g)
    (List.length s.results)
    s.skipped_anycast nodes nodes_sd links links_sd
    (float_of_int (Graph.n_nodes g) /. max 1.0 nodes)
    (float_of_int (Graph.n_links g) /. max 1.0 links);
  match s.degradation with
  | None -> ()
  | Some d -> Format.fprintf ppf "@,%a" pp_degradation d
