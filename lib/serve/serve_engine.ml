(* The resident engine behind `bonsai serve`.

   One engine holds one registry of warm compressed networks under one
   LRU bound — each an [Incr.state]: the per-class results plus the
   policy-signature cache — and answers protocol requests against them.
   The engine is deliberately sequential — the BDD manager is shared
   mutable state — so request isolation comes from budgets, not threads:
   every request runs under its own [Budget.t], the request's own
   "budget_ms"/"budget_ticks" clamped by the server-wide caps
   ([Budget.scoped]), and a request that exhausts it gets a typed
   budget-exceeded response while the engine (and every other queued
   request) is untouched. [handle_line] is total: arbitrary bytes in,
   exactly one typed response line out.

   Warm-state policy, wherever a state enters or changes (cold load,
   [diff]): a degraded state — a compression whose budget ran out so
   that classes fell back to identity — is never kept, and compress,
   load and diff answer it budget-exceeded. Otherwise one
   under-budgeted request would poison every later answer for that
   network. A degraded [diff] leaves the entry at its pre-diff
   network. *)

type entry = {
  en_state : Incr.state;
  en_locs : Config_text.loc_table option;
      (* the source lines of a file: network, for lint and flow *)
  mutable en_stamp : int;  (* LRU clock for the registry *)
}

type t = {
  resolve : string -> Device.network * Config_text.loc_table option;
  cap_deadline_s : float option;
  cap_max_ticks : int option;
  max_networks : int;
  registry : (string, entry) Hashtbl.t;  (* by network spec *)
  mutable clock : int;
  mutable n_requests : int;
  mutable n_succeeded : int;
  mutable n_errors : int;
  mutable n_shed : int;
  mutable n_net_evictions : int;
  mutable n_checkpoints : int;
  mutable restored : bool;
  mutable checkpoint_status : string;
      (* "none" | "restored" | "missing" | "version-skew" | "corrupt" *)
  mutable n_incidents : int;
  mutable audit_cursor : int;  (* round-robin position of the self-audit *)
  mutable audit_dirty : bool;  (* warm state changed since the last full
                                  self-audit cycle *)
  mutable pending_incidents : (string * string) list;
      (* quarantines not yet drained by the server loop (spec, detail) *)
}

(* An unknown spec is the client's mistake (bad-request); an unparsable
   file keeps its typed parse error. *)
let resolve_spec spec =
  match Synthesis.of_spec spec with
  | Ok r -> r
  | Error (`Unknown m) -> failwith m
  | Error (`Parse ds) ->
    Bonsai_error.error (Bonsai_error.Parse_error { diagnostics = ds })

let create ?resolve ?budget_ms ?budget_ticks ?(max_networks = 8) () =
  if max_networks < 1 then
    invalid_arg "Serve_engine.create: max_networks < 1";
  {
    resolve =
      (match resolve with
      | Some f -> fun spec -> (f spec, None)
      | None -> resolve_spec);
    cap_deadline_s =
      Option.map (fun ms -> float_of_int ms /. 1000.0) budget_ms;
    cap_max_ticks = budget_ticks;
    max_networks;
    registry = Hashtbl.create 7;
    clock = 0;
    n_requests = 0;
    n_succeeded = 0;
    n_errors = 0;
    n_shed = 0;
    n_net_evictions = 0;
    n_checkpoints = 0;
    restored = false;
    checkpoint_status = "none";
    n_incidents = 0;
    audit_cursor = 0;
    audit_dirty = false;
    pending_incidents = [];
  }

let note_shed t = t.n_shed <- t.n_shed + 1
let networks t = Hashtbl.length t.registry
let requests t = t.n_requests

(* --- registry --------------------------------------------------------- *)

let touch t en =
  t.clock <- t.clock + 1;
  en.en_stamp <- t.clock

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key en acc ->
        match acc with
        | Some (_, best) when best.en_stamp <= en.en_stamp -> acc
        | _ -> Some (key, en))
      t.registry None
  in
  match victim with
  | None -> ()
  | Some (key, _) ->
    Hashtbl.remove t.registry key;
    t.n_net_evictions <- t.n_net_evictions + 1

(* The one admission rule: a degraded state is never kept, and leaves
   the registry as it was. A new state awaits the self-audit. *)
let admit t spec locs st =
  if Option.is_none (Incr.summary st).Bonsai_api.degradation then begin
    if
      (not (Hashtbl.mem t.registry spec))
      && Hashtbl.length t.registry >= t.max_networks
    then evict_lru t;
    let en = { en_state = st; en_locs = locs; en_stamp = 0 } in
    touch t en;
    Hashtbl.replace t.registry spec en;
    t.audit_dirty <- true
  end

(* Every warm network with its spec, sorted by spec. *)
let warm_networks t =
  Hashtbl.fold (fun spec en acc -> (spec, en) :: acc) t.registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Look up or cold-build the state for a spec. The cold build runs under
   the *request's* budget: a pathological network costs only its own
   requester, never the server. *)
let get_state t ~budget spec =
  match Hashtbl.find_opt t.registry spec with
  | Some en ->
    touch t en;
    en.en_state
  | None -> (
    let net, locs = t.resolve spec in
    match Incr.init ~budget net with
    | Error e -> Bonsai_error.error e
    | Ok st ->
      admit t spec locs st;
      st)

(* The warm network and its source lines if the spec is in the registry,
   else resolved afresh (nothing is cached): for ops that read only the
   configuration. *)
let warm_or_resolve t spec =
  match Hashtbl.find_opt t.registry spec with
  | Some en ->
    touch t en;
    (Incr.network en.en_state, en.en_locs)
  | None -> t.resolve spec

(* --- parameter helpers ------------------------------------------------ *)

let request_budget t req =
  Budget.scoped
    ?deadline_s:
      (Option.map
         (fun ms -> float_of_int ms /. 1000.0)
         (Protocol.int_param req "budget_ms"))
    ?max_ticks:(Protocol.int_param req "budget_ticks")
    ?cap_deadline_s:t.cap_deadline_s ?cap_max_ticks:t.cap_max_ticks ()

let network_param req = Protocol.require_string req "network"

(* The [audit] op's level: sample unless the request says otherwise. *)
let audit_param req =
  match Protocol.string_param req "audit" with
  | None -> Certify.Sample
  | Some s -> (
    match Certify.audit_of_string s with
    | Some a -> a
    | None -> Format.kasprintf failwith "bad audit level %S" s)

(* A degraded result is a typed budget-exceeded response, never an
   answer from identity rows (the one-shot CLI prints them and exits 3). *)
let check_degradation = function
  | Some (d : Bonsai_api.degradation) ->
    Bonsai_error.error (Bonsai_error.Budget_exceeded d.Bonsai_api.deg_info)
  | None -> ()

(* --- ops -------------------------------------------------------------- *)

let compress_op t req =
  let budget = request_budget t req in
  let st = get_state t ~budget (network_param req) in
  let summary = Incr.summary st in
  check_degradation summary.Bonsai_api.degradation;
  let summary, roles =
    match Protocol.string_param req "ec" with
    | None -> (summary, false)
    | Some p -> (
      let p = Prefix.of_string p in
      match Bonsai_api.class_summary summary p with
      | None -> Format.kasprintf failwith "no destination class %a" Prefix.pp p
      | Some s -> (s, true))
  in
  ("network", Json.String (network_param req))
  :: Bonsai_api.summary_json_fields ~roles summary

let lint_op t req =
  let spec = network_param req in
  let net, locs = warm_or_resolve t spec in
  let ds = Lint.run ?locs net in
  [
    ("network", Json.String spec);
    ("findings", Diag.list_to_json ds);
    ("count", Json.Int (List.length ds));
    ("errors", Json.Bool (Lint.has_errors ds));
  ]

let flow_op t req =
  let budget = request_budget t req in
  let spec = network_param req in
  let net, locs = warm_or_resolve t spec in
  ("network", Json.String spec)
  :: Lint_flow.report_json_fields
       (Lint_flow.report ?locs ~budget ~facts:None net)

let diff_op t req =
  let budget = request_budget t req in
  let spec = network_param req in
  let to_spec = Protocol.require_string req "to" in
  let st = get_state t ~budget spec in
  let net', locs = t.resolve to_spec in
  (* Recompress a copy, so that a degraded result, which [admit] refuses,
     leaves the entry at its pre-diff network. A kept one is the [to]
     network with the [to] lines, and awaits the self-audit. *)
  let st = Incr.copy st in
  match Incr.recompress_net ~budget st net' with
  | Error e -> Bonsai_error.error e
  | Ok (deltas, rep) ->
    admit t spec locs st;
    check_degradation rep.Incr.r_degradation;
    ("network", Json.String spec)
    :: ("to", Json.String to_spec)
    :: Incr.report_json_fields ~deltas rep

(* Pre-deployment change review at warm-cache latency: diff the data
   planes of the warm network and a proposed one. Read-only with respect
   to the warm state — the registry entry, its results and its signature
   cache are only consulted (so no audit_dirty, and a follow-up diff/
   compress still sees the old network); only dirty destination classes
   are recompiled, on both networks. *)
let dataplane_diff_op t req =
  let budget = request_budget t req in
  let spec = network_param req in
  let to_spec = Protocol.require_string req "to" in
  let st = get_state t ~budget spec in
  let old_net = Incr.network st in
  let new_net, _ = t.resolve to_spec in
  let deltas = Delta.diff old_net new_net in
  match
    Dp_diff.run ~budget ~cache:(Incr.sig_cache st) ~old_net ~new_net deltas
  with
  | Error e -> Bonsai_error.error e
  | Ok rep ->
    check_degradation rep.Dp_diff.dp_degradation;
    ("network", Json.String spec)
    :: ("to", Json.String to_spec)
    :: Dp_diff.report_json_fields ~old_net ~new_net rep

let faults_op t req =
  let budget = request_budget t req in
  let spec = network_param req in
  let st = get_state t ~budget spec in
  let net = Incr.network st in
  let ec = Bonsai_api.find_class net (Protocol.string_param req "ec") in
  (* the abstraction is the warm one the registry already holds *)
  let abstraction =
    match
      Bonsai_api.find_result (Incr.summary st).Bonsai_api.results
        ec.Ecs.ec_prefix
    with
    | Some r -> r.Bonsai_api.abstraction
    | None -> Format.kasprintf failwith "no result for class %a" Ecs.pp ec
  in
  ("network", Json.String spec)
  :: Soundness.report_json_fields
       (Soundness.run ~budget ~samples:(Protocol.int_param req "samples")
          ~seed:(Option.value ~default:0 (Protocol.int_param req "seed"))
          ~k:(Option.value ~default:1 (Protocol.int_param req "k"))
          ~abstraction net ec)

let harden_op t req =
  let budget = request_budget t req in
  let spec = network_param req in
  let st = get_state t ~budget spec in
  let net = Incr.network st in
  let ec = Bonsai_api.find_class net (Protocol.string_param req "ec") in
  let param = Protocol.int_param req in
  match
    Repair.harden ?k:(param "k") ?rounds:(param "rounds")
      ?samples:(param "samples") ?seed:(param "seed") ~budget net ec
  with
  | Error e -> Bonsai_error.error e
  | Ok r -> ("network", Json.String spec) :: Repair.json_fields net r

(* --- self-audit -------------------------------------------------------- *)

let push_incident t spec detail =
  t.n_incidents <- t.n_incidents + 1;
  t.pending_incidents <- (spec, detail) :: t.pending_incidents

(* The warm state an entry answers from is exactly what the self-audit
   must distrust: a cache poisoned by an engine bug, a bad reuse
   decision, or checkpoint bytes. [Certify.check_summary] re-exports each
   class's certificate and checks it in a fresh BDD universe (a state too
   broken to export a witness is refuted). A refuted entry never answers
   again: it leaves the registry (the caller also rewrites the
   checkpoint) and an incident is queued for the server loop's log; the
   next request for that spec rebuilds cold from the configs. *)
let audit_entry t ~budget ~audit spec st =
  let v =
    Certify.check_summary ~budget ~audit (Incr.network st) (Incr.summary st)
  in
  (match v with
  | Certify.Refuted fs ->
    Hashtbl.remove t.registry spec;
    push_incident t spec (Certify.failures_string fs)
  | Certify.Certified _ | Certify.Audit_incomplete _ -> ());
  v

let drain_incidents t =
  let xs = List.rev t.pending_incidents in
  t.pending_incidents <- [];
  xs

let audit_pending t = t.audit_dirty && not (List.is_empty (warm_networks t))

type audit_outcome =
  | Audit_idle
  | Audit_clean of string
  | Audit_unfinished of string
  | Audit_quarantined of string * string

let sorted_specs t = List.map fst (warm_networks t)

let audit_step ?(budget = Budget.infinite) t =
  match sorted_specs t with
  | [] ->
    t.audit_dirty <- false;
    Audit_idle
  | specs -> (
    let n = List.length specs in
    let i = t.audit_cursor mod n in
    let spec = List.nth specs i in
    if i + 1 >= n then begin
      t.audit_cursor <- 0;
      t.audit_dirty <- false
    end
    else t.audit_cursor <- i + 1;
    match Hashtbl.find_opt t.registry spec with
    | None -> Audit_idle
    | Some en -> (
      match audit_entry t ~budget ~audit:Certify.Sample spec en.en_state with
      | Certify.Certified _ -> Audit_clean spec
      | Certify.Audit_incomplete _ ->
        (* ran out mid-cycle: stay dirty so the next idle moment retries *)
        t.audit_dirty <- true;
        Audit_unfinished spec
      | Certify.Refuted fs ->
        Audit_quarantined (spec, Certify.failures_string fs)))

let audit_op t req =
  let budget = request_budget t req in
  let audit = audit_param req in
  let specs =
    match Protocol.string_param req "network" with
    | Some spec ->
      if Hashtbl.mem t.registry spec then [ spec ] else []
    | None -> sorted_specs t
  in
  let rows, quarantined =
    List.fold_left
      (fun (rows, q) spec ->
        match Hashtbl.find_opt t.registry spec with
        | None -> (rows, q)
        | Some en -> (
          let row verdict extra =
            Json.Obj
              (("network", Json.String spec)
              :: ("verdict", Json.String verdict)
              :: extra)
            :: rows
          in
          match audit_entry t ~budget ~audit spec en.en_state with
          | Certify.Certified { obligations; _ } ->
            (row "certified" [ ("obligations", Json.Int obligations) ], q)
          | Certify.Audit_incomplete _ -> (row "incomplete" [], q)
          | Certify.Refuted fs ->
            let detail = Json.String (Certify.failures_string fs) in
            (row "refuted" [ ("detail", detail) ], spec :: q)))
      ([], []) specs
  in
  [
    ("audited", Json.List (List.rev rows));
    ( "quarantined",
      Json.List (List.map (fun s -> Json.String s) (List.rev quarantined)) );
    ("incidents", Json.Int t.n_incidents);
  ]

(* Test-only fault injection, enabled by BONSAI_TEST_HOOKS=1: silently
   corrupt one warm abstraction in place — move the largest member of a
   multi-member group into an earlier group (whose least member is
   smaller, so the canonical first-occurrence numbering survives and
   the corruption is invisible to shape checks). The abstract graph is
   left stale, which is precisely the wrong-answer state the self-audit
   exists to catch; the chaos suite drives this op and asserts the
   quarantine-and-rebuild path. *)
let test_hooks_enabled () =
  match Sys.getenv_opt "BONSAI_TEST_HOOKS" with
  | Some "1" -> true
  | _ -> false

let test_corrupt_op t req =
  let spec = network_param req in
  let corrupt_results results =
    let corrupt_result (r : Bonsai_api.ec_result) =
      let a = r.Bonsai_api.abstraction in
      let groups = a.Abstraction.groups in
      let n_groups = Array.length groups in
      let move m ~from ~into =
        groups.(from) <-
          List.filter (fun x -> not (Int.equal x m)) groups.(from);
        groups.(into) <- List.sort Int.compare (m :: groups.(into));
        a.Abstraction.group_of.(m) <- into
      in
      let rec find g1 =
        if g1 >= n_groups then false
        else
          match groups.(g1) with
          | _ :: _ :: _ -> (
            let m = List.fold_left Int.max (-1) groups.(g1) in
            let rec target g2 =
              if g2 >= n_groups then None
              else if (not (Int.equal g2 g1)) && List.hd groups.(g2) < m then
                Some g2
              else target (g2 + 1)
            in
            match target 0 with
            | Some g2 ->
              move m ~from:g1 ~into:g2;
              true
            | None -> find (g1 + 1))
          | _ -> find (g1 + 1)
      in
      find 0
    in
    List.exists corrupt_result results
  in
  let results =
    match Hashtbl.find_opt t.registry spec with
    | None -> failwith "network not warm"
    | Some en -> (Incr.summary en.en_state).Bonsai_api.results
  in
  if not (corrupt_results results) then
    failwith "no multi-member group to corrupt";
  [ ("network", Json.String spec); ("corrupted", Json.Bool true) ]

let load_op t req =
  let budget = request_budget t req in
  let spec = network_param req in
  let summary = Incr.summary (get_state t ~budget spec) in
  check_degradation summary.Bonsai_api.degradation;
  [
    ("network", Json.String spec);
    ("ecs", Json.Int (List.length summary.Bonsai_api.results));
  ]

let unload_op t req =
  let spec = network_param req in
  let present = Hashtbl.mem t.registry spec in
  Hashtbl.remove t.registry spec;
  [ ("network", Json.String spec); ("removed", Json.Bool present) ]

let health_op t ~queue_depth =
  [
    ("status", Json.String "ok");
    ("networks", Json.Int (networks t));
    ("queue_depth", Json.Int queue_depth);
  ]

let stats_op t ~queue_depth =
  let rows =
    List.map
      (fun (spec, en) ->
        let st = en.en_state in
        let hits, misses = Incr.cache_stats st in
        let summary = Incr.summary st in
        Json.Obj
          [
            ("network", Json.String spec);
            ("ecs", Json.Int (List.length summary.Bonsai_api.results));
            ("behaviours", Json.Int (Bonsai_api.behaviours summary));
            ("cache_hits", Json.Int hits);
            ("cache_misses", Json.Int misses);
          ])
      (warm_networks t)
  in
  [
    ("requests", Json.Int t.n_requests);
    ("succeeded", Json.Int t.n_succeeded);
    ("errors", Json.Int t.n_errors);
    ("shed", Json.Int t.n_shed);
    ("queue_depth", Json.Int queue_depth);
    ("networks", Json.List rows);
    ("network_evictions", Json.Int t.n_net_evictions);
    ("checkpoints_saved", Json.Int t.n_checkpoints);
    ("restored_from_checkpoint", Json.Bool t.restored);
    ("checkpoint", Json.String t.checkpoint_status);
    ("incidents", Json.Int t.n_incidents);
  ]

(* --- dispatch --------------------------------------------------------- *)

(* Every public op with the parameters it reads, in the order --help
   lists them: dispatch looks ops up here, so the list cannot drift from
   what the engine answers, and a key an op does not read (a misspelt
   "budget_tick", say) is refused rather than silently ignored. [id] and
   [op] are always allowed; the budget pair only on ops that run under
   [request_budget]. The test-corrupt hook is not listed. *)
let budgeted params = params @ [ "budget_ms"; "budget_ticks" ]
let cont op t ~queue_depth:_ req = (op t req, `Continue)

let ops =
  let counters op t ~queue_depth _ = (op t ~queue_depth, `Continue) in
  [
    ("compress", (budgeted [ "network"; "ec" ], cont compress_op));
    ("lint", ([ "network" ], cont lint_op));
    ("flow", (budgeted [ "network" ], cont flow_op));
    ("diff", (budgeted [ "network"; "to" ], cont diff_op));
    ("dataplane-diff", (budgeted [ "network"; "to" ], cont dataplane_diff_op));
    ( "faults",
      (budgeted [ "network"; "ec"; "k"; "samples"; "seed" ], cont faults_op) );
    ( "harden",
      ( budgeted [ "network"; "ec"; "k"; "rounds"; "samples"; "seed" ],
        cont harden_op ) );
    ("load", (budgeted [ "network" ], cont load_op));
    ("unload", ([ "network" ], cont unload_op));
    ("audit", (budgeted [ "network"; "audit" ], cont audit_op));
    ("health", ([], counters health_op));
    ("stats", ([], counters stats_op));
    ( "shutdown",
      ( [],
        fun _ ~queue_depth:_ _ -> ([ ("stopping", Json.Bool true) ], `Shutdown)
      ) );
  ]

let op_names = List.map fst ops

let dispatch t ~queue_depth (req : Protocol.request) =
  let op = req.Protocol.req_op in
  let params, run =
    match List.assoc_opt op ops with
    | Some entry -> entry
    | None when String.equal op "test-corrupt" && test_hooks_enabled () ->
      ([ "network" ], cont test_corrupt_op)
    | None -> Format.kasprintf failwith "unknown op %S" op
  in
  (match req.Protocol.req_body with
  | Json.Obj fields ->
    List.iter
      (fun (key, _) ->
        if not (List.exists (String.equal key) ("id" :: "op" :: params)) then
          raise
            (Protocol.Bad_param
               (Printf.sprintf "unknown parameter %S for op %S" key op)))
      fields
  | _ -> ());
  run t ~queue_depth req

(* Total: every line in, exactly one typed response line out. The
   catch-all is the isolation boundary — no request, however malformed
   or expensive, takes the engine down. *)
let handle_line t ~queue_depth line =
  t.n_requests <- t.n_requests + 1;
  match Protocol.parse_request line with
  | Error m ->
    t.n_errors <- t.n_errors + 1;
    (Protocol.bad_request ~id:Json.Null ~op:"unknown" m, `Continue)
  | Ok req -> (
    let id = req.Protocol.req_id and op = req.Protocol.req_op in
    match dispatch t ~queue_depth req with
    | fields, continue ->
      t.n_succeeded <- t.n_succeeded + 1;
      (Protocol.ok_response ~id ~op fields, continue)
    | exception e ->
      t.n_errors <- t.n_errors + 1;
      let resp =
        match e with
        | Protocol.Bad_param m | Failure m | Invalid_argument m ->
          Protocol.bad_request ~id ~op m
        | e -> Protocol.of_bonsai_error ~id ~op (Bonsai_error.of_exn e)
      in
      (resp, `Continue))

(* --- warm-state checkpointing ----------------------------------------- *)

(* The payload is the registry contents, sorted by spec for a stable
   byte image, each row with its source lines. [Incr.state] is plain
   data all the way down (the BDD manager included), so one Marshal blob
   preserves the BDD sharing between the signature cache and every
   class result. *)
type payload = (string * Incr.state * Config_text.loc_table option) list

let checkpoint t ~path =
  let rows =
    List.map
      (fun (spec, en) -> (spec, en.en_state, en.en_locs))
      (warm_networks t)
  in
  match Checkpoint.save ~path (rows : payload) with
  | Ok () ->
    t.n_checkpoints <- t.n_checkpoints + 1;
    Ok (List.length rows)
  | Error m -> Error m

let restore t ~path =
  match (Checkpoint.load ~path : (payload, Checkpoint.load_error) result) with
  | Ok rows ->
    List.iter
      (fun (spec, st, locs) ->
        (* marshaled copies lost Budget.infinite's physical identity *)
        Incr.rearm st;
        admit t spec locs st)
      rows;
    t.restored <- true;
    t.checkpoint_status <- "restored";
    (* checkpoint bytes are outside the trust boundary (DESIGN.md §15):
       the digest catches torn writes, not a buggy or hostile writer —
       schedule a self-audit cycle over everything we just adopted *)
    t.audit_dirty <- true;
    `Restored (List.length rows)
  | Error Checkpoint.Missing ->
    t.checkpoint_status <- "missing";
    `Missing
  | Error (Checkpoint.Version_skew m) ->
    t.checkpoint_status <- "version-skew";
    `Version_skew m
  | Error (Checkpoint.Corrupt m) ->
    t.checkpoint_status <- "corrupt";
    `Corrupt m
