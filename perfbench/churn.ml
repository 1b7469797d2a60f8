(* The ft-churn workload: a resident engine under a change stream.

   One [Serve_engine] holds fattree k=12 warm (with an OSPF underlay on
   the core and aggregation tiers) and a single closed-loop caller drives
   it in-process through [Serve_engine.handle_line], the path `bonsai
   serve` takes after framing: no sockets, no threads. Set-up pre-builds a
   seeded chain of network versions; the engine's [resolve] is a lookup
   into it. Each step of the stream sends

   - a review: [dataplane-diff] from the warm network to the next version,
     for configuration edits (a link failure is not a proposed change),
   - a write: [diff] to the next version (the warm state moves on),
   - a query: warm [compress] of the whole network, of one class, or
     [lint], in rotation.

   The edits follow a fixed cycle, so every run has the same mix: OSPF
   cost edits (every class reused), an ACL denying one class's prefix and
   its removal (seeded refinement), a link down and up (seeded refinement
   under a topology change) and an import route-map setting local
   preference and its removal (full rebuild). The cycle is sized so that
   no reported percentile falls on the boundary between two latency
   modes: measured on fattree k=12, cost edits and ACL edits take
   20-30 ms to write or review, link edits about 170 ms to write, and the
   local-preference pair about 260 ms to write and 540 ms to review; of
   the 31 requests of a cycle, the median falls among the fast writes and
   reviews and the 90th percentile inside the local-preference writes. *)

type edit = Ospf_cost | Acl_deny | Acl_clear | Link_down | Link_up | Lp_set | Lp_clear

(* A reversal ([Acl_clear], [Link_up], [Lp_clear]) directly follows its
   edit and restores the version before it. *)
let cycle =
  [| Ospf_cost; Acl_deny; Acl_clear; Ospf_cost; Link_down; Link_up;
     Ospf_cost; Lp_set; Lp_clear; Ospf_cost; Ospf_cost |]

let reviewed = function
  | Link_down | Link_up -> false
  | Ospf_cost | Acl_deny | Acl_clear | Lp_set | Lp_clear -> true

(* Whole cycles carrying at least 100 samples of each request kind, so
   each kind's 90th percentile has ten samples beyond it. *)
let min_steps =
  let reviews = Array.fold_left (fun n e -> if reviewed e then n + 1 else n) 0 cycle in
  Array.length cycle * ((100 + reviews - 1) / reviews)

(* One cycle runs before the timed section: the first requests on a
   freshly loaded engine grow the heap and run slower than the rest. *)
let warmup_steps = Array.length cycle

let has_prefix p s =
  String.length s >= String.length p
  && String.equal (String.sub s 0 (String.length p)) p

(* OSPF as an infrastructure underlay on the core/aggregation tiers, as
   the repository's incremental benchmark builds it: the edge routers
   originate every prefix and stay out of OSPF, so a cost edit touches no
   class. *)
let base () =
  let net = Synthesis.fattree_shortest_path (Generators.fattree ~k:12) in
  let g = net.Device.graph in
  let underlay u = not (has_prefix "edge" (Graph.name g u)) in
  {
    net with
    Device.routers =
      Array.mapi
        (fun u r ->
          if not (underlay u) then r
          else
            {
              r with
              Device.ospf_links =
                Array.to_list (Graph.succ g u)
                |> List.filter underlay
                |> List.map (fun v -> (v, { Device.cost = 1; area = 0 }));
            })
        net.Device.routers;
  }

(* --- the seeded version chain ----------------------------------------- *)

type chain = {
  versions : Device.network array;  (* version i+1 = edit i on version i *)
  edits : edit array;
  prefixes : string array;  (* class prefixes *)
}

let pick rng a = a.(Random.State.int rng (Array.length a))

let with_local_pref rm =
  List.map
    (fun (cl : Route_map.clause) ->
      match cl.Route_map.verdict with
      | Route_map.Permit ->
        { cl with Route_map.actions = Route_map.Set_local_pref 200 :: cl.Route_map.actions }
      | Route_map.Deny -> cl)
    rm

let build_chain rng base ~writes =
  let g = base.Device.graph in
  let name = Graph.name g in
  (* Every edit lands on an aggregation-core link. The fattree's
     automorphisms make these links interchangeable, so the seed changes
     which link an edit hits but not what the edit costs. *)
  let links =
    Graph.edges g
    |> List.filter (fun (u, v) -> has_prefix "agg" (name u) && has_prefix "core" (name v))
    |> Array.of_list
  in
  let prefixes = Array.of_list (List.map (fun ec -> ec.Ecs.ec_prefix) (Ecs.compute base)) in
  let edits = Array.init writes (fun i -> cycle.(i mod Array.length cycle)) in
  let versions = Array.make (writes + 1) base in
  for i = 0 to writes - 1 do
    let net = versions.(i) in
    let u, v = pick rng links in
    let node = name u and nbr = name v in
    let apply d = Delta.apply net [ d ] in
    versions.(i + 1) <-
      (match edits.(i) with
      | Acl_clear | Link_up | Lp_clear -> versions.(i - 1)
      | Ospf_cost -> apply (Delta.Ospf_cost { node; nbr; cost = 2 + Random.State.int rng 8 })
      | Acl_deny ->
        let acl =
          [ { Acl.permit = false; prefix = pick rng prefixes };
            { Acl.permit = true; prefix = Prefix.of_string "0.0.0.0/0" } ]
        in
        apply (Delta.Acl_set { node; nbr; acl = Some acl })
      | Link_down -> apply (Delta.Link_down (node, nbr))
      | Lp_set ->
        let rm =
          match Device.bgp_neighbor_config net.Device.routers.(u) v with
          | Some { Device.import_rm = Some rm; _ } -> rm
          | _ -> Route_map.permit_all
        in
        apply
          (Delta.Route_map_set
             { node; nbr; dir = Delta.Import; rm = Some (with_local_pref rm) }))
  done;
  { versions; edits; prefixes = Array.map Prefix.to_string prefixes }

(* "ft" is the base version, "v<i>" version i. *)
let resolve chain spec =
  if String.equal spec "ft" then chain.versions.(0)
  else
    match Scanf.sscanf_opt spec "v%u%!" Fun.id with
    | Some k when k < Array.length chain.versions -> chain.versions.(k)
    | _ -> failwith ("unknown network " ^ spec)

(* --- the request stream ----------------------------------------------- *)

type query = Compress_all | Compress_class of string | Lint
type kind = Write | Review | Query of query
type request = { kind : kind; line : string }

let compress_all = "{\"op\":\"compress\",\"network\":\"ft\"}"

(* Step [i] moves the warm network from version [i] to version [i+1]. *)
let requests chain rng ~steps =
  Array.init steps (fun i ->
      let target = Printf.sprintf "\"network\":\"ft\",\"to\":\"v%d\"" (i + 1) in
      let query =
        match i mod 3 with
        | 0 -> Compress_all
        | 1 -> Compress_class (pick rng chain.prefixes)
        | _ -> Lint
      in
      let query_line =
        match query with
        | Compress_all -> compress_all
        | Compress_class p ->
          Printf.sprintf "{\"op\":\"compress\",\"network\":\"ft\",\"ec\":\"%s\"}" p
        | Lint -> "{\"op\":\"lint\",\"network\":\"ft\"}"
      in
      let review = { kind = Review; line = "{\"op\":\"dataplane-diff\"," ^ target ^ "}" } in
      (if reviewed chain.edits.(i) then [ review ] else [])
      @ [ { kind = Write; line = "{\"op\":\"diff\"," ^ target ^ "}" };
          { kind = Query query; line = query_line } ])

(* An engine with the base version loaded cold. *)
let engine chain =
  let eng = Serve_engine.create ~resolve:(resolve chain) () in
  let resp, _ =
    Serve_engine.handle_line eng ~queue_depth:0 "{\"op\":\"load\",\"network\":\"ft\"}"
  in
  (eng, resp)

let json_int j k = Option.bind (Json.member k j) Json.to_int_opt
let json_bool j k = Option.bind (Json.member k j) Json.to_bool_opt
let parse resp = match Json.parse resp with Ok j -> j | Error _ -> Json.Null
let is_ok resp = json_bool (parse resp) "ok" = Some true

type sample = { s_kind : kind; s_latency : float; s_response : string }

(* Sends whole steps from step [from] until [seconds] have passed and at
   least [min_steps] steps ran, stopping at a cycle boundary so the edit
   mix is exact, or at step [max_steps]. [span] wraps each [handle_line]
   call and [after] sees each request with its response once its latency
   is taken; the traced run records spans and replays the twin there. *)
let stream ?(span = fun _ f -> f ()) ?(after = fun ~id:_ ~step:_ _ _ -> ()) eng
    steps ~from ~seconds ~max_steps =
  let t0 = Timing.now () in
  let out = ref [] in
  let sent = ref 0 in
  let rec go step =
    if
      step >= max_steps
      || step - from >= min_steps
         && step mod Array.length cycle = 0
         && Timing.now () -. t0 >= seconds
    then step
    else begin
      List.iter
        (fun req ->
          let id = !sent in
          incr sent;
          let t = Timing.now () in
          let resp, _ =
            span id (fun () -> Serve_engine.handle_line eng ~queue_depth:0 req.line)
          in
          out := { s_kind = req.kind; s_latency = Timing.now () -. t; s_response = resp } :: !out;
          after ~id ~step req resp)
        steps.(step);
      go (step + 1)
    end
  in
  let steps = go from in
  (Array.of_list (List.rev !out), steps, Timing.now () -. t0)

(* The write's path, as the [diff] response reports it. *)
let write_mode resp =
  let j = parse resp in
  match
    ( json_int j "ecs", json_int j "reused", json_int j "seeded",
      json_int j "scratch", json_bool j "full_rebuild" )
  with
  | Some ecs, Some reused, Some seeded, Some scratch, Some full
    when reused + seeded + scratch = ecs ->
    if full then `Full
    else if reused = ecs then `Reused
    else if scratch > 0 then `Scratch
    else `Seeded
  | _ -> `Bad

let latencies_ms samples keep =
  Array.to_list samples
  |> List.filter (fun s -> keep s.s_kind)
  |> List.map (fun s -> s.s_latency *. 1000.0)

(* A compress response with the first class's size raised by one: the
   negative case the final check must count as a failure. *)
let corrupt_compress resp =
  let key = "\"abstract_nodes\":" in
  let rec find i =
    if i + String.length key > String.length resp then None
    else if String.equal (String.sub resp i (String.length key)) key then Some (i + String.length key)
    else find (i + 1)
  in
  match find 0 with
  | None -> resp
  | Some start ->
    let stop = ref start in
    while !stop < String.length resp && resp.[!stop] >= '0' && resp.[!stop] <= '9' do
      incr stop
    done;
    let n = int_of_string (String.sub resp start (!stop - start)) in
    String.sub resp 0 start ^ string_of_int (n + 1)
    ^ String.sub resp !stop (String.length resp - !stop)

(* --- the twin replay (traced run) -------------------------------------- *)

type twin = {
  state : Incr.state;
  mutable reused : int;
  mutable seeded : int;
  mutable scratch : int;
  mutable ecs : int;
  mutable full_rebuilds : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable dp_reused : int;
  mutable dp_recompiled : int;
  mutable apply_hits : int;
  mutable apply_misses : int;
  mutable ite_misses : int;
  mutable mismatches : int;
}

let twin_of net =
  match Incr.init net with
  | Error e -> failwith (Bonsai_error.to_string e)
  | Ok state ->
    { state; reused = 0; seeded = 0; scratch = 0; ecs = 0; full_rebuilds = 0;
      cache_hits = 0; cache_misses = 0; dp_reused = 0; dp_recompiled = 0;
      apply_hits = 0; apply_misses = 0; ite_misses = 0; mismatches = 0 }

(* The direct layer calls a request stands for, each in a span. *)
let direct_layers =
  [ "delta.diff"; "incr.recompress"; "dp_diff.run"; "lint.run"; "incr.summary" ]

(* Replays one request as direct calls on the twin state and checks the
   engine's response against the direct result. *)
let twin_step spans chain tw ~id ~step req resp =
  let sp name f = Span.record spans ~name ~id f in
  let expect ok = if not ok then tw.mismatches <- tw.mismatches + 1 in
  let j = parse resp in
  let before = Incr.bdd_stats tw.state in
  (match req.kind with
  | Write -> (
    let next = chain.versions.(step + 1) in
    let deltas = sp "delta.diff" (fun () -> Delta.diff (Incr.network tw.state) next) in
    match sp "incr.recompress" (fun () -> Incr.recompress tw.state deltas) with
    | Error _ -> expect false
    | Ok r ->
      tw.reused <- tw.reused + r.Incr.r_reused;
      tw.seeded <- tw.seeded + r.Incr.r_seeded;
      tw.scratch <- tw.scratch + r.Incr.r_scratch;
      tw.ecs <- tw.ecs + r.Incr.r_ecs;
      if r.Incr.r_full_rebuild then tw.full_rebuilds <- tw.full_rebuilds + 1;
      tw.cache_hits <- tw.cache_hits + r.Incr.r_cache_hits;
      tw.cache_misses <- tw.cache_misses + r.Incr.r_cache_misses;
      expect
        (json_int j "reused" = Some r.Incr.r_reused
        && json_int j "seeded" = Some r.Incr.r_seeded
        && json_int j "scratch" = Some r.Incr.r_scratch
        && json_int j "ecs" = Some r.Incr.r_ecs
        && json_int j "deltas" = Some (List.length deltas)
        && json_bool j "full_rebuild" = Some r.Incr.r_full_rebuild))
  | Review -> (
    let old_net = Incr.network tw.state in
    let new_net = chain.versions.(step + 1) in
    let deltas = sp "delta.diff" (fun () -> Delta.diff old_net new_net) in
    match
      sp "dp_diff.run" (fun () ->
          Dp_diff.run ~cache:(Incr.sig_cache tw.state) ~old_net ~new_net deltas)
    with
    | Error _ -> expect false
    | Ok r ->
      tw.dp_reused <- tw.dp_reused + r.Dp_diff.dp_reused;
      tw.dp_recompiled <- tw.dp_recompiled + r.Dp_diff.dp_recompiled;
      let added, removed, modified = Dp_diff.counts r in
      expect
        (json_int j "reused" = Some r.Dp_diff.dp_reused
        && json_int j "recompiled" = Some r.Dp_diff.dp_recompiled
        && json_int j "added" = Some added
        && json_int j "removed" = Some removed
        && json_int j "modified" = Some modified))
  | Query Lint ->
    let ds = sp "lint.run" (fun () -> Lint.run (Incr.network tw.state)) in
    expect (json_int j "count" = Some (List.length ds))
  | Query (Compress_all | Compress_class _) ->
    let s = sp "incr.summary" (fun () -> Incr.summary tw.state) in
    let sizes =
      List.map
        (fun (r : Bonsai_api.ec_result) ->
          ( Prefix.to_string r.Bonsai_api.ec.Ecs.ec_prefix,
            Abstraction.n_abstract r.Bonsai_api.abstraction ))
        s.Bonsai_api.results
    in
    let row c =
      match
        (Option.bind (Json.member "destination" c) Json.to_string_opt, json_int c "abstract_nodes")
      with
      | Some p, Some n -> List.assoc_opt p sizes = Some n
      | _ -> false
    in
    expect
      (match Json.member "classes" j with
      | Some (Json.List (_ :: _ as rows)) -> List.for_all row rows
      | _ -> false));
  (* A full rebuild starts a fresh manager, whose counters restart. *)
  let after = Incr.bdd_stats tw.state in
  let grown a b = if b >= a then b - a else b in
  tw.apply_hits <- tw.apply_hits + grown before.Bdd.apply_hits after.Bdd.apply_hits;
  tw.apply_misses <- tw.apply_misses + grown before.Bdd.apply_misses after.Bdd.apply_misses;
  tw.ite_misses <- tw.ite_misses + grown before.Bdd.ite_misses after.Bdd.ite_misses

(* The first [traced_cycles] cycles of the same stream again on a fresh
   engine, a span around each [handle_line] and the twin replay after
   it. The replay is kept to a third of the stream so the traced run,
   which also makes the untraced pass, stays within a few minutes. *)
let traced_cycles = 4

let traced_run chain reqs ~untraced =
  let spans = Span.create () in
  let base = chain.versions.(0) in
  let sp name f = Span.record spans ~name ~id:(-1) f in
  ignore (sp "policy_bdd.universe" (fun () -> Policy_bdd.universe_of_network base));
  ignore (sp "ecs.compute" (fun () -> Ecs.compute base));
  let eng, _ = engine chain in
  let tw = twin_of base in
  let traced, _, _ =
    stream eng reqs ~from:0 ~seconds:Float.infinity
      ~max_steps:(traced_cycles * Array.length cycle)
      ~span:(fun id f -> Span.record spans ~name:"serve_engine.handle_line" ~id f)
      ~after:(fun ~id ~step req resp -> twin_step spans chain tw ~id ~step req resp)
  in
  let untraced = Array.sub untraced 0 (Array.length traced) in
  let same_responses =
    Array.for_all2 (fun a b -> String.equal a.s_response b.s_response) traced untraced
  in
  let t = Span.time spans in
  let handle = t "serve_engine.handle_line" in
  let direct = List.fold_left (fun acc n -> acc +. t n) 0.0 direct_layers in
  let untraced_s = Array.fold_left (fun acc s -> acc +. s.s_latency) 0.0 untraced in
  let metrics =
    [
      ("policy_bdd.universe_s", t "policy_bdd.universe");
      ("ecs.compute_s", t "ecs.compute");
      ("bdd.nodes", float_of_int (Incr.bdd_stats tw.state).Bdd.nodes);
      ("bdd.apply_misses", float_of_int tw.apply_misses);
      ("bdd.apply_hit_ratio", Report.share tw.apply_hits (tw.apply_hits + tw.apply_misses));
      ("bdd.ite_misses", float_of_int tw.ite_misses);
      ("delta.diff_s", t "delta.diff");
      ("incr.recompress_s", t "incr.recompress");
      ("incr.reused", float_of_int tw.reused);
      ("incr.seeded", float_of_int tw.seeded);
      ("incr.scratch", float_of_int tw.scratch);
      ("incr.full_rebuilds", float_of_int tw.full_rebuilds);
      ("incr.reuse_ratio", Report.share tw.reused tw.ecs);
      ("sig_cache.hits", float_of_int tw.cache_hits);
      ("sig_cache.misses", float_of_int tw.cache_misses);
      ("sig_cache.hit_ratio", Report.share tw.cache_hits (tw.cache_hits + tw.cache_misses));
      ("dp_diff.run_s", t "dp_diff.run");
      ("dp_diff.reused", float_of_int tw.dp_reused);
      ("dp_diff.recompiled", float_of_int tw.dp_recompiled);
      ("lint.run_s", t "lint.run");
      ("serve_engine.self_s", handle -. direct);
      ("trace.untraced_s", untraced_s);
      ("trace.traced_s", handle);
      ("trace.overhead_s", handle -. untraced_s);
      ("trace.residual_s", untraced_s -. direct);
    ]
  in
  let line =
    Printf.sprintf "traced replay %s the untraced responses; twin replay %s"
      (if same_responses then "reproduces" else "DIFFERS FROM")
      (if tw.mismatches = 0 then "agrees with every response"
       else Printf.sprintf "DISAGREES with %d responses" tw.mismatches)
  in
  (spans, metrics, same_responses && tw.mismatches = 0, line)

(* --- the workload ----------------------------------------------------- *)

let run ~seed ~seconds ~trace ~trace_out =
  (* room for a machine twice as fast as the one the cycle was sized on *)
  let max_steps =
    let len = Array.length cycle in
    warmup_steps + min_steps
    + (len * int_of_float (Float.ceil (seconds *. 10.0 /. float_of_int len)))
  in
  let setup () =
    let rng = Random.State.make [| seed |] in
    let chain = build_chain rng (base ()) ~writes:max_steps in
    let reqs = requests chain rng ~steps:max_steps in
    let eng, load = engine chain in
    (chain, reqs, eng, load)
  in
  let setup_before, (chain, reqs, eng, load) = Report.time_reps 3 setup in
  let warmup, _, _ =
    stream eng reqs ~from:0 ~seconds:Float.infinity ~max_steps:warmup_steps
  in
  let measured, steps, wall = stream eng reqs ~from:warmup_steps ~seconds ~max_steps in
  let heap = Report.peak_heap_mb () in
  (* Every request is checked, the warm-up cycle's too. *)
  let samples = Array.append warmup measured in
  (* Output checks, outside the timed section. *)
  let bad_responses =
    Array.fold_left (fun acc s -> if is_ok s.s_response then acc else acc + 1) 0 samples
  in
  let modes =
    Array.to_list samples
    |> List.filter (fun s -> s.s_kind = Write)
    |> List.map (fun s -> write_mode s.s_response)
  in
  let count m = List.length (List.filter (fun x -> x = m) modes) in
  let writes = List.length modes in
  let final = chain.versions.(steps) in
  let warm, _ = Serve_engine.handle_line eng ~queue_depth:0 compress_all in
  let cold_eng =
    Serve_engine.create ~resolve:(fun s -> if String.equal s "ft" then final else resolve chain s) ()
  in
  let cold, _ = Serve_engine.handle_line cold_eng ~queue_depth:0 compress_all in
  let final_matches w = is_ok w && String.equal w cold in
  let negative_detected = not (final_matches (corrupt_compress warm)) in
  let failed = bad_responses + count `Bad + if final_matches warm then 0 else 1 in
  let setup_after, _ = Report.time_reps 2 setup in
  let setup_s = Report.median (setup_before @ setup_after) in
  let attempted = Array.length samples + 1 in
  let all_ms = latencies_ms measured (fun _ -> true) in
  let routers = Graph.n_nodes final.Device.graph in
  let sizes =
    match Json.member "classes" (parse warm) with
    | Some (Json.List l) -> List.filter_map (fun c -> json_int c "abstract_nodes") l
    | _ -> []
  in
  let mean_nodes =
    float_of_int (List.fold_left ( + ) 0 sizes) /. float_of_int (max 1 (List.length sizes))
  in
  let e2e =
    [
      ("setup_s", setup_s);
      ("ops_per_s", float_of_int (Array.length measured) /. wall);
      ("op_p50_ms", Report.percentile all_ms 0.5);
      ("op_p90_ms", Report.percentile all_ms 0.9);
      ("compression_ratio", float_of_int routers /. mean_nodes);
      ("peak_heap_mb", heap);
    ]
  in
  let per_kind =
    List.concat_map
      (fun (name, keep) ->
        let xs = latencies_ms measured keep in
        [
          (name ^ "_p50_ms", Report.percentile xs 0.5);
          (name ^ "_p90_ms", Report.percentile xs 0.9);
          (name ^ "_samples", float_of_int (List.length xs));
        ])
      [
        ("write", fun k -> k = Write);
        ("review", fun k -> k = Review);
        ("query", function Query _ -> true | Write | Review -> false);
      ]
  in
  let shares =
    [
      ("writes.reused_share", Report.share (count `Reused) writes);
      ("writes.seeded_share", Report.share (count `Seeded) writes);
      ("writes.scratch_share", Report.share (count `Scratch) writes);
      ("writes.full_rebuild_share", Report.share (count `Full) writes);
    ]
  in
  let lines =
    [
      Printf.sprintf
        "ft-churn: fattree k=12, %d routers, %d timed steps (%d requests) in %.3f s \
         after a %d-step warm-up; one process, one domain, closed loop with one \
         caller, in-process handle_line (no transport)"
        routers (steps - warmup_steps) (Array.length measured) wall warmup_steps;
      Printf.sprintf "cold load: %s" (if is_ok load then "ok" else load);
      Printf.sprintf "failure_ratio %.6f (%d of %d operations failed)"
        (Report.share failed attempted) failed attempted;
      Printf.sprintf "latency samples %d (timed requests, %d cycles)" (Array.length measured)
        ((steps - warmup_steps) / Array.length cycle);
      String.concat " "
        (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (Report.number v)) (per_kind @ shares));
      Printf.sprintf "final warm compress %s a cold compress of the final version"
        (if final_matches warm then "equals" else "DIFFERS FROM");
      Printf.sprintf "negative check (one class's size changed): %s"
        (if negative_detected then "counted as a failure" else "NOT DETECTED");
    ]
  in
  let layers, consistent, trace_lines =
    if not trace then ([], true, [])
    else begin
      let spans, metrics, consistent, line =
        traced_run chain reqs ~untraced:samples
      in
      Option.iter (Span.write_chrome spans) trace_out;
      (per_kind @ shares @ metrics, consistent, [ line ])
    end
  in
  List.iter print_endline (lines @ trace_lines);
  ( negative_detected && consistent,
    attempted,
    failed,
    e2e,
    layers @ [ ("failure_ratio", Report.share failed attempted) ] )
