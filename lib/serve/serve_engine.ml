(* The resident engine behind `bonsai serve`.

   One engine holds a registry of warm networks (each an [Incr.state]:
   the compressed per-class results plus the policy-signature cache) and
   answers protocol requests against them. The engine is deliberately
   sequential — the BDD manager is shared mutable state — so request
   isolation comes from budgets, not threads: every request runs under
   its own [Budget.t], the request's own --budget-ms/--budget-ticks
   clamped by the server-wide caps ([Budget.scoped]), and a request that
   exhausts it gets a typed budget-exceeded response while the engine
   (and every other queued request) is untouched. [handle_line] is
   total: arbitrary bytes in, exactly one typed response line out.

   Warm-state policy: a cold [Incr.init] that *degraded* (its budget ran
   out mid-compression, remaining classes fell back to identity) is
   answered from but never cached — otherwise one under-budgeted request
   would poison every later answer for that network with permanently
   degraded results. Only fully-compressed states enter the registry. *)

type entry = {
  en_spec : string;
  en_state : Incr.state;
  mutable en_stamp : int;  (* LRU clock for the network registry *)
}

(* Warm modular runs, in a registry of their own: a modular state is a
   set of per-module engines, quarantined module-by-module rather than
   evicted wholesale. *)
type mentry = {
  men_spec : string;
  men_state : Modular.state;
  mutable men_stamp : int;
}

type t = {
  resolve : string -> Device.network;
  cap_deadline_s : float option;
  cap_max_ticks : int option;
  cache_cap : int option;
  max_networks : int;
  registry : (string, entry) Hashtbl.t;
  modular_registry : (string, mentry) Hashtbl.t;
  mutable clock : int;
  mutable n_requests : int;
  mutable n_ok : int;
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

let create ~resolve ?budget_ms ?budget_ticks ?cache_cap ?(max_networks = 8) ()
    =
  if max_networks < 1 then
    invalid_arg "Serve_engine.create: max_networks < 1";
  {
    resolve;
    cap_deadline_s =
      Option.map (fun ms -> float_of_int ms /. 1000.0) budget_ms;
    cap_max_ticks = budget_ticks;
    cache_cap;
    max_networks;
    registry = Hashtbl.create 7;
    modular_registry = Hashtbl.create 7;
    clock = 0;
    n_requests = 0;
    n_ok = 0;
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
      (fun _ en acc ->
        match acc with
        | Some best when best.en_stamp <= en.en_stamp -> acc
        | _ -> Some en)
      t.registry None
  in
  match victim with
  | None -> ()
  | Some en ->
    Hashtbl.remove t.registry en.en_spec;
    t.n_net_evictions <- t.n_net_evictions + 1

let admit t spec st =
  if Hashtbl.length t.registry >= t.max_networks then evict_lru t;
  let en = { en_spec = spec; en_state = st; en_stamp = 0 } in
  touch t en;
  Hashtbl.replace t.registry spec en;
  t.audit_dirty <- true

type warmth = Warm | Cold_cached | Cold_transient

(* Look up or cold-build the state for a spec. The cold build runs under
   the *request's* budget: a pathological network costs only its own
   requester, never the server. *)
let get_state t ~budget spec =
  match Hashtbl.find_opt t.registry spec with
  | Some en ->
    touch t en;
    (en.en_state, Warm)
  | None -> (
    let net = t.resolve spec in
    match Incr.init ?cache_cap:t.cache_cap ~budget net with
    | Error e -> Bonsai_error.error e
    | Ok st ->
      if Option.is_some (Incr.summary st).Bonsai_api.degradation then
        (st, Cold_transient)
      else begin
        admit t spec st;
        (st, Cold_cached)
      end)

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

(* Mirror of the one-shot CLI's --degrade contract: a degraded result is
   a typed budget-exceeded response unless the request opted into
   degradation with "degrade": true — then it is an ok response whose
   "degraded" fields say what fell back to identity. *)
let wants_degrade req =
  Option.value ~default:false (Protocol.bool_param req "degrade")

let check_degradation req = function
  | Some (d : Bonsai_api.degradation) when not (wants_degrade req) ->
    Bonsai_error.error (Bonsai_error.Budget_exceeded d.Bonsai_api.deg_info)
  | _ -> ()

(* --- ops -------------------------------------------------------------- *)

(* Deterministic by design: responses carry structure (class sizes,
   counts, verdicts) but never wall-clock or cache counters — the
   kill-and-restart acceptance test diffs a warm-restored compress
   response byte-for-byte against a cold one. Timings live in `stats`. *)

let compress_op t req =
  let budget = request_budget t req in
  let st, _ = get_state t ~budget (network_param req) in
  let summary = Incr.summary st in
  check_degradation req summary.Bonsai_api.degradation;
  let results =
    match Protocol.string_param req "ec" with
    | None -> summary.Bonsai_api.results
    | Some p -> (
      let p = Prefix.of_string p in
      match
        List.filter
          (fun (r : Bonsai_api.ec_result) ->
            Prefix.equal r.Bonsai_api.ec.Ecs.ec_prefix p)
          summary.Bonsai_api.results
      with
      | [] -> Format.kasprintf failwith "no destination class %a" Prefix.pp p
      | rs -> rs)
  in
  [
    ("network", Json.String (network_param req));
    ("ecs", Json.Int (List.length results));
    ("skipped_anycast", Json.Int summary.Bonsai_api.skipped_anycast);
    ( "degraded",
      Json.Bool (Option.is_some summary.Bonsai_api.degradation) );
    ( "classes",
      Json.List
        (List.map
           (fun r -> Json.Obj (Bonsai_api.ec_result_json_fields r))
           results) );
  ]

let lint_op t req =
  let budget = request_budget t req in
  let spec = network_param req in
  let net =
    match Hashtbl.find_opt t.registry spec with
    | Some en ->
      touch t en;
      Incr.network en.en_state
    | None -> t.resolve spec
  in
  let compression =
    Option.value ~default:true (Protocol.bool_param req "compression")
  in
  let flow = Option.value ~default:false (Protocol.bool_param req "flow") in
  let ds = Lint.run ~compression ~flow ~budget net in
  [
    ("network", Json.String spec);
    ("findings", Json.List (List.map Diag.to_json ds));
    ("count", Json.Int (List.length ds));
    ("errors", Json.Bool (Lint.has_errors ds));
  ]

let flow_op t req =
  let budget = request_budget t req in
  let spec = network_param req in
  let net =
    match Hashtbl.find_opt t.registry spec with
    | Some en ->
      touch t en;
      Incr.network en.en_state
    | None -> t.resolve spec
  in
  let ds = List.sort Diag.compare (Lint_flow.run ~budget net) in
  let degraded =
    List.exists (fun d -> String.equal d.Diag.check "flow-degraded") ds
  in
  [
    ("network", Json.String spec);
    ("findings", Json.List (List.map Diag.to_json ds));
    ("count", Json.Int (List.length ds));
    ("degraded", Json.Bool degraded);
  ]

let diff_op t req =
  let budget = request_budget t req in
  let spec = network_param req in
  let to_spec = Protocol.require_string req "to" in
  let st, _ = get_state t ~budget spec in
  let net' = t.resolve to_spec in
  let recertify =
    match Protocol.string_param req "recertify" with
    | None -> None
    | Some s -> (
      match Certify.audit_of_string s with
      | Some a -> Some a
      | None -> Format.kasprintf failwith "bad recertify level %S" s)
  in
  match Incr.recompress_net ~budget ?recertify st net' with
  | Error e -> Bonsai_error.error e
  | Ok (deltas, rep) ->
    check_degradation req rep.Incr.r_degradation;
    (* the warm state just changed; the idle self-audit should revisit *)
    t.audit_dirty <- true;
    [
      ("network", Json.String spec);
      ("to", Json.String to_spec);
      ("deltas", Json.Int (List.length deltas));
      ("ecs", Json.Int rep.Incr.r_ecs);
    ]
    @ Incr.reuse_json_fields rep
    @ [ ("degraded", Json.Bool (Option.is_some rep.Incr.r_degradation)) ]
    @ if Option.is_some recertify then Incr.recert_json_fields rep else []

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
  let st, _ = get_state t ~budget spec in
  let old_net = Incr.network st in
  let new_net = t.resolve to_spec in
  let deltas = Delta.diff old_net new_net in
  match
    Dp_diff.run ~budget ~cache:(Incr.sig_cache st) ~old_net ~new_net deltas
  with
  | Error e -> Bonsai_error.error e
  | Ok rep ->
    check_degradation req rep.Dp_diff.dp_degradation;
    [
      ("network", Json.String spec);
      ("to", Json.String to_spec);
      ("deltas", Json.Int (List.length deltas));
      ("changed", Json.Bool (Dp_diff.changed rep));
      ("classes", Json.Int rep.Dp_diff.dp_classes);
      ("reused", Json.Int rep.Dp_diff.dp_reused);
      ("recompiled", Json.Int rep.Dp_diff.dp_recompiled);
      ("full_rebuild", Json.Bool rep.Dp_diff.dp_full_rebuild);
    ]
    @ Dp_diff.changes_json_fields ~old_net ~new_net rep
    @ [ ("degraded", Json.Bool (Option.is_some rep.Dp_diff.dp_degradation)) ]

let faults_op t req =
  let budget = request_budget t req in
  let spec = network_param req in
  let st, _ = get_state t ~budget spec in
  let net = Incr.network st in
  let ec = Ecs.find net (Protocol.string_param req "ec") in
  let k = Option.value ~default:1 (Protocol.int_param req "k") in
  let samples = Protocol.int_param req "samples" in
  let seed = Option.value ~default:0 (Protocol.int_param req "seed") in
  let dest = Ecs.single_origin ec in
  let srp = Compile.bgp_srp net ~dest ~dest_prefix:ec.Ecs.ec_prefix in
  let plan = Fault_engine.plan ?samples ~seed ~k net.Device.graph in
  let cache = Fault_engine.cache () in
  let report = Fault_engine.survey ~budget ~cache srp plan in
  (* the abstraction is the warm one the registry already holds *)
  let r =
    match
      List.find_opt
        (fun (r : Bonsai_api.ec_result) ->
          Prefix.equal r.Bonsai_api.ec.Ecs.ec_prefix ec.Ecs.ec_prefix)
        (Incr.summary st).Bonsai_api.results
    with
    | Some r -> r
    | None -> Format.kasprintf failwith "no result for class %a" Ecs.pp ec
  in
  let abstraction = r.Bonsai_api.abstraction in
  let break_ =
    Soundness.first_break abstraction ~concrete:srp ~concrete_cache:cache
      ~abstract_:(Abstraction.bgp_srp abstraction)
      plan.Fault_engine.scenarios
  in
  [
    ("network", Json.String spec);
    ("destination", Json.String (Prefix.to_string ec.Ecs.ec_prefix));
    ("scenarios", Json.Int (List.length plan.Fault_engine.scenarios));
    ("exhaustive", Json.Bool plan.Fault_engine.exhaustive);
    ("stable", Json.Int report.Fault_engine.n_stable);
    ("disconnected", Json.Int report.Fault_engine.n_disconnected);
    ("diverged", Json.Int report.Fault_engine.n_diverged);
    ("skipped", Json.Int report.Fault_engine.n_skipped);
    ("sound", Json.Bool (Option.is_none break_));
    ( "break_scenario",
      match break_ with
      | None -> Json.Null
      | Some (sc, _) ->
        Json.String
          (Format.asprintf "%a" (Scenario.pp ~names:(Graph.name net.Device.graph)) sc) );
  ]

let harden_op t req =
  let budget = request_budget t req in
  let spec = network_param req in
  let st, _ = get_state t ~budget spec in
  let net = Incr.network st in
  let ec = Ecs.find net (Protocol.string_param req "ec") in
  let k = Protocol.int_param req "k" in
  let rounds = Protocol.int_param req "rounds" in
  let samples = Protocol.int_param req "samples" in
  let seed = Protocol.int_param req "seed" in
  match Repair.harden ?k ?rounds ?samples ?seed ~budget net ec with
  | Error e -> Bonsai_error.error e
  | Ok r ->
    let abstraction = r.Repair.result.Bonsai_api.abstraction in
    [
      ("network", Json.String spec);
      ("destination", Json.String (Prefix.to_string ec.Ecs.ec_prefix));
      ("rounds", Json.Int (List.length r.Repair.rounds));
      ("pins", Json.Int (List.length r.Repair.pins));
      ("scenarios", Json.Int r.Repair.n_scenarios);
      ("counterexamples", Json.Int r.Repair.n_counterexamples);
      ("sound", Json.Bool r.Repair.sound);
      ( "fallback",
        Json.String (Bonsai_api.fallback_to_string r.Repair.fallback) );
      ("abstract_nodes", Json.Int (Abstraction.n_abstract abstraction));
      ( "abstract_links",
        Json.Int (Graph.n_links abstraction.Abstraction.abs_graph) );
    ]

(* --- self-audit -------------------------------------------------------- *)

(* The warm state an entry answers from is exactly what the self-audit
   must distrust: a cache poisoned by an engine bug, a bad reuse
   decision, or checkpoint bytes. Re-export each class's certificate
   from the registry's own [Incr.state] and check it independently in a
   fresh BDD universe ([Certify.check_result] — the emission itself is
   exception-proof, a state too broken to export a witness is refuted). *)
let audit_entry ~budget ~audit (en : entry) =
  try
    let net = Incr.network en.en_state in
    let summary = Incr.summary en.en_state in
    let universe = Policy_bdd.universe_of_network net in
    let rec go obligations = function
      | [] ->
        Certify.Certified
          { ecs = List.length summary.Bonsai_api.results; obligations }
      | r :: rest -> (
        match Certify.check_result ~budget ~universe ~audit net r with
        | Certify.Certified { obligations = o; _ } ->
          go (obligations + o) rest
        | (Certify.Refuted _ | Certify.Audit_incomplete _) as v -> v)
    in
    go 0 summary.Bonsai_api.results
  with Budget.Exhausted info -> Certify.Audit_incomplete info

let push_incident t spec detail =
  t.n_incidents <- t.n_incidents + 1;
  t.pending_incidents <- (spec, detail) :: t.pending_incidents

(* A refuted warm entry never answers again: out of the registry (the
   caller also rewrites the checkpoint so the corruption cannot be
   resurrected), incident queued for the server loop's structured log.
   The next request for that spec rebuilds cold from the configs. *)
let quarantine t spec detail =
  Hashtbl.remove t.registry spec;
  push_incident t spec detail

let drain_incidents t =
  let xs = List.rev t.pending_incidents in
  t.pending_incidents <- [];
  xs

let audit_pending t = t.audit_dirty && Hashtbl.length t.registry > 0

type audit_outcome =
  | Audit_idle
  | Audit_clean of string
  | Audit_unfinished of string
  | Audit_quarantined of string * string

let sorted_specs t =
  Hashtbl.fold (fun spec _ acc -> spec :: acc) t.registry []
  |> List.sort String.compare

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
      match audit_entry ~budget ~audit:Certify.Sample en with
      | Certify.Certified _ -> Audit_clean spec
      | Certify.Audit_incomplete _ ->
        (* ran out mid-cycle: stay dirty so the next idle moment retries *)
        t.audit_dirty <- true;
        Audit_unfinished spec
      | Certify.Refuted fs ->
        let detail = Certify.failures_string fs in
        quarantine t spec detail;
        Audit_quarantined (spec, detail)))

let audit_op t req =
  let budget = request_budget t req in
  let audit =
    match Protocol.string_param req "audit" with
    | None -> Certify.Sample
    | Some s -> (
      match Certify.audit_of_string s with
      | Some a -> a
      | None -> Format.kasprintf failwith "bad audit level %S" s)
  in
  let specs =
    match Protocol.string_param req "network" with
    | Some spec -> if Hashtbl.mem t.registry spec then [ spec ] else []
    | None -> sorted_specs t
  in
  let rows, quarantined =
    List.fold_left
      (fun (rows, q) spec ->
        match Hashtbl.find_opt t.registry spec with
        | None -> (rows, q)
        | Some en -> (
          match audit_entry ~budget ~audit en with
          | Certify.Certified { obligations; _ } ->
            ( Json.Obj
                [
                  ("network", Json.String spec);
                  ("verdict", Json.String "certified");
                  ("obligations", Json.Int obligations);
                ]
              :: rows,
              q )
          | Certify.Audit_incomplete _ ->
            ( Json.Obj
                [
                  ("network", Json.String spec);
                  ("verdict", Json.String "incomplete");
                ]
              :: rows,
              q )
          | Certify.Refuted fs ->
            let detail = Certify.failures_string fs in
            quarantine t spec detail;
            ( Json.Obj
                [
                  ("network", Json.String spec);
                  ("verdict", Json.String "refuted");
                  ("detail", Json.String detail);
                ]
              :: rows,
              spec :: q )))
      ([], []) specs
  in
  [
    ("audited", Json.List (List.rev rows));
    ( "quarantined",
      Json.List (List.map (fun s -> Json.String s) (List.rev quarantined)) );
    ("incidents", Json.Int t.n_incidents);
  ]

(* --- modular ---------------------------------------------------------- *)

let mtouch t men =
  t.clock <- t.clock + 1;
  men.men_stamp <- t.clock

let get_modular t ~budget ~mode ~count ~certify spec =
  match Hashtbl.find_opt t.modular_registry spec with
  | Some men ->
    mtouch t men;
    (men.men_state, true)
  | None -> (
    let net = t.resolve spec in
    match Modular.run ~mode ?count ~budget ~certify net with
    | Error e -> Bonsai_error.error e
    | Ok st ->
      (* Same warm-state policy as compress: a run where *every* module
         faulted (e.g. an absurd request budget) is answered from but
         never cached; partial health is the normal warm shape. *)
      let rp = Modular.report st in
      let all_faulted =
        List.for_all
          (fun (mr : Modular.module_report) ->
            match mr.Modular.mr_health with
            | Modular.Degraded | Modular.Refuted -> true
            | Modular.Healthy | Modular.Retried -> false)
          rp.Modular.rp_modules
      in
      if not all_faulted then begin
        if Hashtbl.length t.modular_registry >= t.max_networks then begin
          let victim =
            Hashtbl.fold
              (fun _ men acc ->
                match acc with
                | Some best when best.men_stamp <= men.men_stamp -> acc
                | _ -> Some men)
              t.modular_registry None
          in
          match victim with
          | None -> ()
          | Some men ->
            Hashtbl.remove t.modular_registry men.men_spec;
            t.n_net_evictions <- t.n_net_evictions + 1
        end;
        let men = { men_spec = spec; men_state = st; men_stamp = 0 } in
        mtouch t men;
        Hashtbl.replace t.modular_registry spec men
      end;
      (st, false))

let modular_op t req =
  let budget = request_budget t req in
  let spec = network_param req in
  let mode =
    match Protocol.string_param req "modules" with
    | None -> Modular.Auto
    | Some s -> (
      match Modular.mode_of_string s with
      | Some m -> m
      | None -> Format.kasprintf failwith "bad modules mode %S" s)
  in
  let count = Protocol.int_param req "count" in
  let certify =
    Option.value ~default:false (Protocol.bool_param req "certify")
  in
  let audit = Option.value ~default:false (Protocol.bool_param req "audit") in
  let st, warm = get_modular t ~budget ~mode ~count ~certify spec in
  let quarantined =
    if not audit then []
    else begin
      (* Module-level quarantine: a refuted module's engine state is
         dropped (its rows degrade) while every other module stays warm;
         each refutation is an incident for the server loop to log. *)
      let refuted = Modular.self_audit ~budget st in
      List.iter
        (fun (m, detail) ->
          t.n_incidents <- t.n_incidents + 1;
          t.pending_incidents <-
            (spec ^ "/" ^ m, detail) :: t.pending_incidents)
        refuted;
      List.map fst refuted
    end
  in
  let rp = Modular.report st in
  [
    ("network", Json.String spec);
    ("warm", Json.Bool warm);
    (* no wall-clock: the chaos suite diffs these rows byte-for-byte *)
    ( "modules",
      Json.List
        (List.map (Modular.module_to_json ~timed:false) rp.Modular.rp_modules)
    );
    ("routers", Json.Int rp.Modular.rp_routers);
    ("skipped_anycast", Json.Int rp.Modular.rp_skipped_anycast);
    ("faulted", Json.Bool (Modular.any_fault rp));
    ( "quarantined",
      Json.List (List.map (fun m -> Json.String m) quarantined) );
  ]

(* Test-only fault injection, enabled by BONSAI_TEST_HOOKS=1: silently
   corrupt one warm abstraction in place — move the largest member of a
   multi-member group into an earlier group (whose least member is
   smaller, so the canonical first-occurrence numbering survives and
   the corruption is invisible to shape checks). The abstract graph is
   left stale, which is precisely the wrong-answer state the self-audit
   exists to catch; the chaos suite drives this op and asserts the
   quarantine-and-rebuild path. With a "module" parameter it targets a
   warm *modular* module's state instead, so the suite can prove
   module-level quarantine isolates the refuted module only. *)
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
        groups.(from) <- List.filter (fun x -> x <> m) groups.(from);
        groups.(into) <- List.sort compare (m :: groups.(into));
        a.Abstraction.group_of.(m) <- into
      in
      let rec find g1 =
        if g1 >= n_groups then false
        else
          match groups.(g1) with
          | _ :: _ :: _ -> (
            let m = List.fold_left max (-1) groups.(g1) in
            let rec target g2 =
              if g2 >= n_groups then None
              else if g2 <> g1 && List.hd groups.(g2) < m then Some g2
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
    match Protocol.string_param req "module" with
    | Some m -> (
      match Hashtbl.find_opt t.modular_registry spec with
      | None -> failwith "network not warm (modular)"
      | Some men -> (
        match Modular.module_summary men.men_state m with
        | None -> Format.kasprintf failwith "module %S not warm" m
        | Some s -> s.Bonsai_api.results))
    | None -> (
      match Hashtbl.find_opt t.registry spec with
      | None -> failwith "network not warm"
      | Some en -> (Incr.summary en.en_state).Bonsai_api.results)
  in
  if not (corrupt_results results) then
    failwith "no multi-member group to corrupt";
  [ ("network", Json.String spec); ("corrupted", Json.Bool true) ]

let load_op t req =
  let budget = request_budget t req in
  let spec = network_param req in
  let st, warmth = get_state t ~budget spec in
  let summary = Incr.summary st in
  check_degradation req summary.Bonsai_api.degradation;
  [
    ("network", Json.String spec);
    ("ecs", Json.Int (List.length summary.Bonsai_api.results));
    ( "degraded",
      Json.Bool (Option.is_some summary.Bonsai_api.degradation) );
    ( "cached",
      Json.Bool (match warmth with Cold_transient -> false | _ -> true) );
  ]

let unload_op t req =
  let spec = network_param req in
  let present = Hashtbl.mem t.registry spec in
  Hashtbl.remove t.registry spec;
  [ ("network", Json.String spec); ("removed", Json.Bool present) ]

let health_op t ~queue_depth =
  [
    ("status", Json.String "ok");
    ("networks", Json.Int (Hashtbl.length t.registry));
    ("queue_depth", Json.Int queue_depth);
  ]

let stats_op t ~queue_depth =
  let rows =
    Hashtbl.fold (fun _ en acc -> en :: acc) t.registry []
    |> List.sort (fun a b -> String.compare a.en_spec b.en_spec)
    |> List.map (fun en ->
           let hits, misses = Incr.cache_stats en.en_state in
           Json.Obj
             [
               ("network", Json.String en.en_spec);
               ( "ecs",
                 Json.Int
                   (List.length
                      (Incr.summary en.en_state).Bonsai_api.results) );
               ("cache_hits", Json.Int hits);
               ("cache_misses", Json.Int misses);
               ( "cache_evictions",
                 Json.Int (Incr.cache_evictions en.en_state) );
             ])
  in
  [
    ("requests", Json.Int t.n_requests);
    ("ok", Json.Int t.n_ok);
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

let dispatch t ~queue_depth (req : Protocol.request) =
  match req.Protocol.req_op with
  | "compress" -> (compress_op t req, `Continue)
  | "lint" -> (lint_op t req, `Continue)
  | "flow" -> (flow_op t req, `Continue)
  | "diff" -> (diff_op t req, `Continue)
  | "dataplane-diff" -> (dataplane_diff_op t req, `Continue)
  | "faults" -> (faults_op t req, `Continue)
  | "harden" -> (harden_op t req, `Continue)
  | "load" -> (load_op t req, `Continue)
  | "unload" -> (unload_op t req, `Continue)
  | "audit" -> (audit_op t req, `Continue)
  | "modular" -> (modular_op t req, `Continue)
  | "test-corrupt" when test_hooks_enabled () ->
    (test_corrupt_op t req, `Continue)
  | "health" -> (health_op t ~queue_depth, `Continue)
  | "stats" -> (stats_op t ~queue_depth, `Continue)
  | "shutdown" -> ([ ("stopping", Json.Bool true) ], `Shutdown)
  | op -> Format.kasprintf failwith "unknown op %S" op

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
      t.n_ok <- t.n_ok + 1;
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
   byte image. [Incr.state] is plain data all the way down (the BDD
   manager included), so one Marshal blob preserves the BDD sharing
   between the signature cache and every class result. *)
type payload = (string * Incr.state) list

let checkpoint t ~path =
  let rows =
    Hashtbl.fold (fun _ en acc -> (en.en_spec, en.en_state) :: acc)
      t.registry []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
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
      (fun (spec, st) ->
        (* marshaled copies lost Budget.infinite's physical identity *)
        Incr.rearm st;
        admit t spec st)
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
