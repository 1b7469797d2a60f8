(* bonsai: command-line frontend for control plane compression.

     bonsai info fattree:12
     bonsai compress wan --dot /tmp/wan.dot
     bonsai compress datacenter --ec 10.100.3.0/24
     bonsai verify fattree:12 --src edge3_1
     bonsai roles datacenter

   Network specifications: fattree:K, fattree-prefer:K, ring:N, mesh:N,
   random:N[:SEED], multiwan:R:S, datacenter, wan, file:PATH. *)

(* A bad network spec / router name on the command line: reported as a
   usage error, not as one of the typed pipeline failures. *)
exception Usage of string

(* Resolves a network spec; [file:PATH] networks additionally carry a
   source location table for file:line diagnostics. Raises
   [Bonsai_error.Error (Parse_error _)] for an unparsable file and [Usage]
   for an unknown spec — both handled by [guarded] below, mapping parse
   errors to their dedicated exit code. *)
let resolve_network_full spec =
  match Synthesis.of_spec spec with
  | Ok r -> r
  | Error (`Unknown m) -> raise (Usage m)
  | Error (`Parse ds) ->
    Bonsai_error.error (Bonsai_error.Parse_error { diagnostics = ds })

let resolve_network spec = fst (resolve_network_full spec)

(* A router by name; an unknown name fails the command. *)
let router (net : Device.network) name =
  match Graph.find_by_name net.Device.graph name with
  | Some v -> v
  | None -> Format.kasprintf failwith "unknown router %S" name

let network_arg =
  Cmdliner.Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"NETWORK"
        ~doc:
          "Network specification (e.g. fattree:12, or file:PATH for a \
           configuration file).")

(* Every command body runs under this wrapper: commands return their exit
   code, and any escaping failure is converted to the typed taxonomy and
   its documented exit code (budget 3, parse 4, compile 5, divergence 6,
   soundness 7, internal 9). *)
let guarded f =
  match f () with
  | code -> code
  | exception Usage m ->
    Format.eprintf "bonsai: %s@." m;
    Cmdliner.Cmd.Exit.cli_error
  | exception Failure m ->
    Format.eprintf "bonsai: %s@." m;
    Cmdliner.Cmd.Exit.some_error
  | exception e ->
    let err = Bonsai_error.of_exn e in
    Format.eprintf "bonsai: @[<v>%a@]@." Bonsai_error.pp err;
    Bonsai_error.exit_code err

(* A typed pipeline failure escapes to [guarded], which maps it to its
   exit code. *)
let ok_or_raise = function Ok x -> x | Error e -> Bonsai_error.error e

let make_budget ms ticks =
  match (ms, ticks) with
  | None, None -> Budget.infinite
  | _ ->
    Budget.create
      ?deadline_s:(Option.map (fun m -> float_of_int m /. 1000.0) ms)
      ?max_ticks:ticks ()

(* Every --format json output is one [Json.t] printed on one line, built
   from the same encoders the resident engine answers with: stdout carries
   exactly one machine-parseable document (or, for watch, one per event),
   timings and diagnostics go to stderr. *)
let print_json v = print_endline (Json.to_string v)

(* Elapsed wall clock is nondeterministic, so it goes to stderr; the
   degradation report on stdout stays golden-testable. *)
let report_budget budget =
  if not (Budget.is_infinite budget) then
    Printf.eprintf "budget: %d ticks consumed, %.3fs elapsed\n%!"
      (Budget.ticks budget) (Budget.elapsed_s budget)

let print_degradation =
  Option.iter (Format.printf "@[<v>%a@]@." Bonsai_api.pp_degradation)

let cache_json hits misses =
  Json.Obj [ ("hits", Json.Int hits); ("misses", Json.Int misses) ]

(* --- info ----------------------------------------------------------- *)

let info_cmd_run spec =
  guarded @@ fun () ->
  let net = resolve_network spec in
  let g = net.Device.graph in
  Format.printf "nodes: %d@." (Graph.n_nodes g);
  Format.printf "links: %d@." (Graph.n_links g);
  Format.printf "destination classes: %d@." (Ecs.count net);
  Format.printf "configuration lines: %d@." (Device.config_lines net);
  Format.printf "unique roles: %d@." (Bonsai_api.roles net);
  (match Device.validate net with
  | Ok () -> Format.printf "configuration: valid@."
  | Error e -> Format.printf "configuration: INVALID (%s)@." e);
  0

(* --- compress --------------------------------------------------------- *)

(* --- certification ------------------------------------------------------ *)

(* --certify: export the result as a certificate and re-check it with the
   independent checker (lib/certify). A refuted certificate raises the
   typed Certificate_failure (exit 8) through [guarded]. Budget
   exhaustion mid-audit is `Incomplete: a truthful "not certified", never
   a false "certified". *)
let write_certificate path cert =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string (Certify.to_json cert));
      output_char oc '\n')

let run_certify ~budget ~audit ~certificate net cert =
  Option.iter (fun path -> write_certificate path cert) certificate;
  match Certify.check ~budget ~audit net cert with
  | Certify.Certified { ecs; obligations } ->
    Printf.eprintf "certified: %d class%s, %d obligations (%s audit)\n%!" ecs
      (if ecs = 1 then "" else "es")
      obligations
      (Certify.audit_to_string audit);
    `Certified
  | Certify.Audit_incomplete info ->
    Printf.eprintf
      "certification incomplete: audit budget ran out in %s (%d ticks, \
       %.3fs)\n\
       %!"
      info.Budget.phase info.Budget.ticks info.Budget.elapsed_s;
    `Incomplete
  | Certify.Refuted fs ->
    Bonsai_error.error
      (Bonsai_error.Certificate_failure (Certify.failures_string fs))

(* --check-dataplane: compile the concrete and abstract FIBs per class
   and trace every destination from every role representative through
   both (lib/dataplane's bisimulation check). A diverging witness is a
   soundness break (exit 7). Text goes to stdout; under --format json it
   goes to stderr so the JSON document stays golden-testable. *)
let run_check_dataplane ~budget ~format net
    (results : Bonsai_api.ec_result list) =
  let emit s =
    match format with `Text -> print_endline s | `Json -> prerr_endline s
  in
  match Dp_bisim.check ~budget net results with
  | Dp_bisim.Equivalent { classes; traces } ->
    emit
      (Printf.sprintf "dataplane: %d class%s bisimulate (%d traces compared)"
         classes
         (if classes = 1 then "" else "es")
         traces);
    `Ok
  | Dp_bisim.Incomplete { classes; unknown; _ } ->
    emit
      (Printf.sprintf "dataplane: %d classes checked, %d UNKNOWN" classes
         (List.length unknown));
    `Incomplete
  | Dp_bisim.Refuted rf ->
    let r = Option.get (Bonsai_api.find_result results rf.Dp_bisim.rf_prefix) in
    Bonsai_error.error
      (Bonsai_error.Soundness_break
         (Dp_bisim.refutation_string net r.Bonsai_api.abstraction rf))

(* The text view of a one-class summary: size and roles (none for the
   identity fallback, which has one role per node). *)
let print_class net (r : Bonsai_api.ec_result) =
  let t = r.Bonsai_api.abstraction in
  Format.printf "%a@." Abstraction.pp_summary t;
  if not r.Bonsai_api.degraded then
    Array.iteri
      (fun gid members ->
        Format.printf "  role %d (%d node%s%s): %s@." gid (List.length members)
          (if List.length members = 1 then "" else "s")
          (if t.Abstraction.copies.(gid) > 1 then
             Printf.sprintf ", %d copies" t.Abstraction.copies.(gid)
           else "")
          (String.concat ", "
             (List.map (Graph.name net.Device.graph)
                (List.filteri (fun i _ -> i < 6) members)
             @ if List.length members > 6 then [ "..." ] else [])))
      t.Abstraction.groups

(* One path for one class or all: one summary, then one rendering,
   certification and exit code. *)
let compress_cmd_run spec ec_prefix dot all check_dataplane format budget_ms
    budget_ticks certify audit certificate =
  guarded @@ fun () ->
  let net = resolve_network spec in
  let budget = make_budget budget_ms budget_ticks in
  let single = not all in
  if Option.is_some dot && not single then
    raise (Usage "--dot draws one class's abstract topology: use it with --ec");
  let s =
    let ecs =
      if single then Some [ Bonsai_api.find_class net ec_prefix ] else None
    in
    ok_or_raise (Bonsai_api.compress ?ecs ~budget net)
  in
  (match s.Bonsai_api.results with
  | [ r ] when single ->
    Option.iter
      (fun path ->
        Dot.write_file ~path r.Bonsai_api.abstraction.Abstraction.abs_graph)
      dot;
    Printf.eprintf "compression time: %.3fs (%d refinement iterations)\n%!"
      r.Bonsai_api.time_s r.Bonsai_api.refine_stats.Refine.iterations;
    if format = `Text then begin
      print_class net r;
      Option.iter (Format.printf "abstract topology written to %s@.") dot;
      print_degradation s.Bonsai_api.degradation
    end
  | _ ->
    Printf.eprintf "bdd time: %.2fs, %.3fs per EC\n%!" s.Bonsai_api.bdd_time_s
      (Bonsai_api.mean_time_per_ec s);
    Printf.eprintf "behaviours: %d distinct among %d classes\n%!"
      (Bonsai_api.behaviours s)
      (List.length s.Bonsai_api.results);
    if format = `Text then Format.printf "%a@." Bonsai_api.pp_summary s);
  if format = `Json then begin
    let bdd =
      match s.Bonsai_api.results with
      | r :: _ ->
        let t = r.Bonsai_api.abstraction in
        Bdd.stats_to_json (Bdd.stats t.Abstraction.universe.Policy_bdd.man)
      | [] -> Json.Null
    in
    print_json
      (Json.Obj
         (Bonsai_api.summary_json_fields ~roles:single s @ [ ("bdd", bdd) ]))
  end;
  report_budget budget;
  let dp_status =
    if check_dataplane then
      run_check_dataplane ~budget ~format net s.Bonsai_api.results
    else `Ok
  in
  let cert_status =
    if certify then
      run_certify ~budget ~audit ~certificate net
        (Certify.of_summary ~network:spec net s)
    else `Skipped
  in
  if Option.is_some s.Bonsai_api.degradation then 3
  else
    match (dp_status, cert_status) with
    | `Incomplete, _ | _, `Incomplete -> 3
    | `Ok, (`Certified | `Skipped) -> 0

(* --- diff / watch: incremental recompression --------------------------- *)

(* The recompression document plus the engine's own counters, which a
   warm serve engine would report differently: signature-cache hits and
   misses of this recompression, then [extra]. *)
let report_fields ~deltas ~extra (rep : Incr.report) =
  Incr.report_json_fields ~deltas rep
  @ (("cache", cache_json rep.Incr.r_cache_hits rep.Incr.r_cache_misses)
    :: extra)

let report_text (rep : Incr.report) =
  Format.printf "classes: %d (%d reused, %d seeded, %d scratch)%s@."
    rep.Incr.r_ecs rep.Incr.r_reused rep.Incr.r_seeded rep.Incr.r_scratch
    (if rep.Incr.r_full_rebuild then " [full rebuild]" else "");
  Format.printf "signature cache: %d hits, %d misses@." rep.Incr.r_cache_hits
    rep.Incr.r_cache_misses;
  print_degradation rep.Incr.r_degradation

let diff_cmd_run old_spec new_spec format budget_ms budget_ticks certify
    audit certificate =
  guarded @@ fun () ->
  let old_net = resolve_network old_spec in
  let new_net = resolve_network new_spec in
  let budget = make_budget budget_ms budget_ticks in
  let st = ok_or_raise (Incr.init ~budget old_net) in
  let deltas, rep = ok_or_raise (Incr.recompress_net ~budget st new_net) in
  let bdd = Incr.bdd_stats st in
  (match format with
  | `Text when List.is_empty deltas -> Format.printf "networks are identical@."
  | `Text ->
    Format.printf "deltas (%d):@." (List.length deltas);
    List.iter (fun d -> Format.printf "  - %a@." Delta.pp d) deltas;
    report_text rep;
    Format.printf "bdd: %a@." Bdd.pp_stats bdd
  | `Json ->
    print_json
      (Json.Obj
         (report_fields ~deltas
            ~extra:[ ("bdd", Bdd.stats_to_json bdd) ]
            rep)));
  Printf.eprintf "diff: %d deltas recompressed in %.3fs\n%!"
    (List.length deltas) rep.Incr.r_time_s;
  (* the one audit of the recompressed state: every class the engine
     produced, reused or shared, is checked here and only here *)
  let cert_status =
    if certify then
      run_certify ~budget ~audit ~certificate new_net
        (Certify.of_summary ~network:new_spec new_net (Incr.summary st))
    else `Skipped
  in
  match (rep.Incr.r_degradation, cert_status) with
  | Some _, _ | _, `Incomplete -> 3
  | None, (`Certified | `Skipped) -> if List.is_empty deltas then 0 else 1

(* --- dataplane-diff: differential FIB compilation --------------------- *)

let dataplane_diff_cmd_run old_spec new_spec format budget_ms budget_ticks =
  guarded @@ fun () ->
  let old_net = resolve_network old_spec in
  let new_net = resolve_network new_spec in
  let budget = make_budget budget_ms budget_ticks in
  let deltas = Delta.diff old_net new_net in
  let rep = ok_or_raise (Dp_diff.run ~budget ~old_net ~new_net deltas) in
  let name u = Graph.name new_net.Device.graph u in
  let old_name u = Graph.name old_net.Device.graph u in
  let hops nm = function
    | None -> "-"
    | Some (e : Dataplane.entry) ->
      let names us = String.concat "," (List.map nm us) in
      Printf.sprintf "[%s]%s"
        (names e.Dataplane.e_next_hops)
        (match e.Dataplane.e_acl_dropped with
        | [] -> ""
        | ds -> Printf.sprintf " (acl-dropped %s)" (names ds))
  in
  (match format with
  | `Text ->
    let added, removed, modified = Dp_diff.counts rep in
    Format.printf "deltas (%d):@." (List.length deltas);
    List.iter (fun d -> Format.printf "  - %a@." Delta.pp d) deltas;
    Format.printf "classes: %d (%d reused, %d recompiled)%s@."
      rep.Dp_diff.dp_classes rep.Dp_diff.dp_reused rep.Dp_diff.dp_recompiled
      (if rep.Dp_diff.dp_full_rebuild then " [full rebuild]" else "");
    if rep.Dp_diff.dp_anycast > 0 then
      Format.printf "anycast classes skipped (no FIB): %d@."
        rep.Dp_diff.dp_anycast;
    Format.printf "fib changes: %d added, %d removed, %d modified@." added
      removed modified;
    List.iter
      (fun (c : Dp_diff.change) ->
        let sym, router =
          match c.Dp_diff.c_kind with
          | Dp_diff.Added -> ("+", name c.Dp_diff.c_router)
          | Dp_diff.Removed -> ("-", old_name c.Dp_diff.c_router)
          | Dp_diff.Modified -> ("~", name c.Dp_diff.c_router)
        in
        Format.printf "  %s %s %a: %s -> %s@." sym router Prefix.pp
          c.Dp_diff.c_prefix
          (hops old_name c.Dp_diff.c_old)
          (hops name c.Dp_diff.c_new))
      rep.Dp_diff.dp_changes;
    List.iter
      (fun p -> Format.printf "  ? %a: unknown (not compiled)@." Prefix.pp p)
      rep.Dp_diff.dp_unknown;
    print_degradation rep.Dp_diff.dp_degradation
  | `Json ->
    print_json (Json.Obj (Dp_diff.report_json_fields ~old_net ~new_net rep)));
  Printf.eprintf "dataplane-diff: %d classes diffed in %.3fs\n%!"
    rep.Dp_diff.dp_classes rep.Dp_diff.dp_time_s;
  match rep.Dp_diff.dp_unknown with
  | _ :: _ -> 3
  | [] -> if Dp_diff.changed rep then 1 else 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A directory is one network, one-or-more devices per file, concatenated
   in filename order (our text format is position-independent, so any
   split across files parses the same). *)
let read_watch_path path =
  if Sys.file_exists path && Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.filter (fun f ->
           Filename.check_suffix f ".cfg" || Filename.check_suffix f ".conf")
    |> List.map (fun f -> read_file (Filename.concat path f))
    |> String.concat "\n"
  else read_file path

module Names = Set.Make (String)

(* Router stanzas and topology nodes defined by a configuration text —
   a plain line scan, usable even when the text as a whole no longer
   parses (e.g. a deleted file left dangling link references). *)
let defined_router_names text =
  String.split_on_char '\n' text
  |> List.fold_left
       (fun acc line ->
         match
           String.split_on_char ' ' (String.trim line)
           |> List.filter (fun s -> not (String.equal s ""))
         with
         | [ "node"; n ] | [ "router"; n ] -> Names.add n acc
         | _ -> acc)
       Names.empty

let watch_cmd_run path poll_ms once max_events format budget_ms budget_ticks =
  guarded @@ fun () ->
  let read () =
    try Ok (read_watch_path path) with Sys_error m -> Error [ (0, m) ]
  in
  let text0 =
    match read () with
    | Ok t -> t
    | Error ds ->
      Bonsai_error.error (Bonsai_error.Parse_error { diagnostics = ds })
  in
  let net0 =
    match Config_text.parse_full text0 with
    | Ok (net, _) -> net
    | Error ds ->
      Bonsai_error.error (Bonsai_error.Parse_error { diagnostics = ds })
  in
  let st =
    ok_or_raise (Incr.init ~budget:(make_budget budget_ms budget_ticks) net0)
  in
  let s = Incr.summary st in
  let hits, misses = Incr.cache_stats st in
  (match format with
  | `Text ->
    let g = net0.Device.graph in
    Format.printf
      "watch: %d nodes, %d links; %d classes compressed (cache %d hits, %d \
       misses)@."
      (Graph.n_nodes g) (Graph.n_links g)
      (List.length s.Bonsai_api.results)
      hits misses;
    print_degradation s.Bonsai_api.degradation
  | `Json ->
    (* one document per line (NDJSON): the initial network's compress
       document, then one per recompression *)
    print_json
      (Json.Obj
         ((("event", Json.String "init") :: Bonsai_api.summary_json_fields s)
         @ [ ("cache", cache_json hits misses) ])));
  if once then if Option.is_some s.Bonsai_api.degradation then 3 else 0
  else begin
    let last = ref text0 in
    let events = ref 0 in
    let report_event deltas rep =
      (match format with
      | `Text ->
        Format.printf "watch: %d delta%s@." (List.length deltas)
          (if List.length deltas = 1 then "" else "s");
        List.iter (fun d -> Format.printf "  - %a@." Delta.pp d) deltas;
        report_text rep;
        Format.printf "time: %.3fs@." rep.Incr.r_time_s
      | `Json ->
        (* milliseconds, as the text report shows *)
        let t = Float.round (rep.Incr.r_time_s *. 1000.) /. 1000. in
        print_json
          (Json.Obj
             (("event", Json.String "recompress")
             :: report_fields ~deltas
                  ~extra:[ ("time_s", Json.Float t) ]
                  rep)));
      incr events
    in
    (* Consecutive read/parse failures back off exponentially (capped):
       a file that stays broken — deleted, permission flip, an editor
       that crashed mid-save — must not make the watcher spin at the
       poll rate forever. Any successfully parsed snapshot resets the
       backoff. The policy itself lives in Backoff (lib/serve), where
       the cap and the never-below-base invariant are unit-tested. *)
    let bo = Backoff.create ~base_ms:poll_ms () in
    let note_failure () =
      let ms = Backoff.note_failure bo in
      if ms > poll_ms then
        Printf.eprintf "watch: backing off to %dms after %d failure%s\n%!" ms
          (Backoff.failures bo)
          (if Backoff.failures bo = 1 then "" else "s")
    in
    let rec loop () =
      Unix.sleepf (float_of_int (Backoff.sleep_ms bo) /. 1000.0);
      (match read () with
      | Error ds ->
        List.iter (fun (_, m) -> Printf.eprintf "watch: %s\n%!" m) ds;
        note_failure ()
      | Ok text when String.equal text !last -> ()
      | Ok text -> (
        (* A change seen mid-write (truncate + write, rsync) shows up as
           an empty or unparsable snapshot; one quick re-read usually
           sees the completed write. Only after the retry do we report
           and keep the previous network. *)
        let text, parsed =
          Backoff.parse_with_retry ~read ~parse:Config_text.parse_full
            ~sleep:(fun () -> Unix.sleepf 0.05)
            text
        in
        last := text;
        match parsed with
        | Error ds -> (
          (* A deleted *.cfg/*.conf in directory mode leaves the
             surviving files' references to its routers dangling — the
             concatenated text stops parsing even though the operator's
             intent (remove those nodes) is clear. Routers whose [node]/
             [router] stanzas vanished from the text become node-removal
             deltas against the previous network; only a parse failure
             with nothing removed is reported as an error. *)
          let defined = defined_router_names text in
          let cur = Incr.network st in
          let removed =
            Graph.fold_nodes cur.Device.graph ~init:[] ~f:(fun acc v ->
                let nm = Graph.name cur.Device.graph v in
                if Names.mem nm defined then acc else nm :: acc)
            |> List.sort String.compare
          in
          match removed with
          | [] ->
            (* keep serving the previous network; the next edit gets
               another chance *)
            Printf.eprintf
              "watch: parse error (%d diagnostic%s); keeping the previous \
               network\n%!"
              (List.length ds)
              (if List.length ds = 1 then "" else "s");
            List.iter
              (fun (line, m) -> Printf.eprintf "  line %d: %s\n%!" line m)
              ds;
            note_failure ()
          | names -> (
            Backoff.reset bo;
            Printf.eprintf
              "watch: %d router%s no longer defined; treating as node \
               removal\n%!"
              (List.length names)
              (if List.length names = 1 then "" else "s");
            let deltas = List.map (fun n -> Delta.Node_remove n) names in
            match
              Incr.recompress
                ~budget:(make_budget budget_ms budget_ticks)
                st deltas
            with
            | Error e ->
              Printf.eprintf "watch: %s\n%!"
                (Format.asprintf "@[%a@]" Bonsai_error.pp e)
            | Ok rep -> report_event deltas rep))
        | Ok (net', _) -> (
          Backoff.reset bo;
          match
            Incr.recompress_net ~budget:(make_budget budget_ms budget_ticks)
              st net'
          with
          | Error e ->
            Printf.eprintf "watch: %s\n%!"
              (Format.asprintf "@[%a@]" Bonsai_error.pp e)
          | Ok (deltas, rep) -> report_event deltas rep)));
      if max_events > 0 && !events >= max_events then 0 else loop ()
    in
    loop ()
  end

(* --- lint -------------------------------------------------------------- *)

let lint_cmd_run spec format min_severity list_checks =
  guarded @@ fun () ->
  if list_checks then begin
    List.iter
      (fun (name, doc) -> Format.printf "%-24s %s@." name doc)
      Lint.checks;
    0
  end
  else begin
    let net, locs = resolve_network_full spec in
    let ds = Lint.run ?locs net in
    let shown = Lint.filter ~min_severity ds in
    (match format with
    | `Text -> Format.printf "%a" Lint.pp_text shown
    | `Json -> print_json (Diag.list_to_json shown));
    if Lint.has_errors ds then 1 else 0
  end

(* --- flow --------------------------------------------------------------- *)

(* Whole-network provenance checks (lib/analysis: Flow + Lint_flow). Exit
   codes: 0 clean, 1 at least one warning-or-error finding, 3 the dataflow
   budget ran out (facts degraded to Unknown; the degradation is reported
   instead of verdicts computed from partial state). *)
let flow_cmd_run spec ec_prefix format facts budget_ms budget_ticks =
  guarded @@ fun () ->
  let net, locs = resolve_network_full spec in
  let r =
    Lint_flow.report ?locs ~budget:(make_budget budget_ms budget_ticks)
      ~facts:(if facts then Some (Ecs.find net ec_prefix) else None)
      net
  in
  let ds = r.Lint_flow.findings in
  (match format with
  | `Text -> (
    List.iter (fun d -> Format.printf "%a@." Diag.pp d) ds;
    Format.printf "%d finding%s@." (List.length ds)
      (if List.length ds = 1 then "" else "s");
    match r.Lint_flow.facts with
    | None -> ()
    | Some (ec, rows) ->
      Format.printf "facts for %a:@." Prefix.pp ec.Ecs.ec_prefix;
      List.iter
        (fun (fr : Lint_flow.fact_row) ->
          Format.printf "  %s%s:@." fr.fr_router
            (match fr.fr_role with
            | Some g -> Printf.sprintf " (role %d)" g
            | None -> "");
          let show plane = function
            | None -> Format.printf "    %s: unreachable@." plane
            | Some s -> Format.printf "    %s: %s@." plane s
          in
          show "bgp" fr.fr_bgp;
          show "ospf" fr.fr_ospf)
        rows)
  | `Json -> print_json (Json.Obj (Lint_flow.report_json_fields r)));
  if r.Lint_flow.degraded then
    (* same exit class as every other budget exhaustion *)
    Bonsai_error.exit_code
      (Bonsai_error.Budget_exceeded
         { Budget.phase = "flow"; ticks = 0; elapsed_s = 0.0; note = None })
  else if
    List.exists
      (fun d ->
        Diag.severity_rank d.Diag.severity >= Diag.severity_rank Diag.Warning)
      ds
  then 1
  else 0

(* --- verify ------------------------------------------------------------ *)

let verify_cmd_run spec src ec_prefix =
  guarded @@ fun () ->
  let net = resolve_network spec in
  let ec = Bonsai_api.find_class net ec_prefix in
  let src_id = router net src in
  let cv, ct =
    Timing.time (fun () -> Reachability.concrete_query net ~src:src_id ~ec)
  in
  let av, at =
    Timing.time (fun () -> Reachability.abstract_query net ~src:src_id ~ec)
  in
  Format.printf "%s reaches %a: %b (concrete, %.3fs) / %b (abstract, %.3fs)@."
    src Ecs.pp ec cv ct av at;
  if cv <> av then begin
    Format.printf "DISAGREEMENT — this is a bug@.";
    (* a disagreement between abstract and concrete is a soundness break *)
    Bonsai_error.exit_code (Bonsai_error.Soundness_break "")
  end
  else 0

(* --- trace ------------------------------------------------------------- *)

let trace_cmd_run spec src_name addr all =
  guarded @@ fun () ->
  let net = resolve_network spec in
  let src = router net src_name in
  let addr = Ipv4.of_string addr in
  (* longest-prefix match picks only an entry whose prefix contains the
     address, so the other classes cannot change the trace; an anycast
     one has no FIB to walk *)
  let ecs =
    List.filter (fun ec -> Prefix.mem addr ec.Ecs.ec_prefix) (Ecs.compute net)
  in
  Bonsai_api.refuse_anycasts ecs;
  let dp = Dataplane.of_network net ecs in
  Format.printf "data plane: %d classes solved, %d FIB entries@."
    (Dataplane.ecs_solved dp) (Dataplane.n_entries dp);
  let diverged = List.map Prefix.to_string (Dataplane.unknown_classes dp) in
  if diverged <> [] then
    Format.printf "control plane diverged, no FIB entries: %s@."
      (String.concat ", " diverged);
  let show = function
    | Forwarding.Delivered path ->
      Format.printf "delivered: %s@."
        (String.concat " -> "
           (List.map (Graph.name net.Device.graph) path))
    | Forwarding.Dropped path ->
      Format.printf "DROPPED at %s: %s@."
        (Graph.name net.Device.graph (List.nth path (List.length path - 1)))
        (String.concat " -> " (List.map (Graph.name net.Device.graph) path))
    | Forwarding.Looped path ->
      Format.printf "LOOP: %s@."
        (String.concat " -> " (List.map (Graph.name net.Device.graph) path))
  in
  if all then List.iter show (Dataplane.trace_all dp ~src addr)
  else show (Dataplane.trace dp ~src addr);
  0

(* --- faults ------------------------------------------------------------ *)

(* The head of the faults and harden text reports. *)
let print_class_header (net : Device.network) ec =
  let g = net.Device.graph in
  Format.printf
    "destination %a (originated at %s)@.topology: %d nodes, %d links@."
    Prefix.pp ec.Ecs.ec_prefix
    (Graph.name g (Ecs.single_origin ec))
    (Graph.n_nodes g) (Graph.n_links g)

let faults_cmd_run spec ec_prefix k samples seed format budget_ms
    budget_ticks =
  guarded @@ fun () ->
  let net = resolve_network spec in
  let ec = Bonsai_api.find_class net ec_prefix in
  let abstraction =
    (Bonsai_api.compress_ec_exn net ec).Bonsai_api.abstraction
  in
  let r =
    Soundness.run ~budget:(make_budget budget_ms budget_ticks) ~samples ~seed
      ~k ~abstraction net ec
  in
  let plan = r.Soundness.plan in
  let n_disc = List.length r.Soundness.disconnected
  and n_div = List.length r.Soundness.diverged in
  let name = Graph.name net.Device.graph in
  let n_scenarios = List.length plan.Fault_engine.scenarios in
  let pp_sc = Scenario.pp ~names:name in
  let side reaches stable =
    if not stable then "diverged"
    else if reaches then "reaches"
    else "does not reach"
  in
  (match format with
  | `Text ->
    print_class_header net ec;
    Format.printf "scenarios: %d (%s, up to %d failed link%s)@." n_scenarios
      (if plan.Fault_engine.exhaustive then "exhaustive" else "sampled")
      k
      (if k = 1 then "" else "s");
    Format.printf "  stable & reachable: %d@." r.Soundness.n_stable;
    Format.printf "  disconnected:       %d@." n_disc;
    Format.printf "  diverged:           %d@." n_div;
    if r.Soundness.n_skipped > 0 then
      Format.printf "  skipped (budget):   %d@." r.Soundness.n_skipped;
    let listing what xs pp_row =
      let cap = 12 in
      if xs <> [] then begin
        Format.printf "%s scenarios%s:@." what
          (if List.length xs > cap then
             Printf.sprintf " (first %d of %d)" cap (List.length xs)
           else "");
        List.iteri (fun i x -> if i < cap then pp_row x) xs
      end
    in
    listing "disconnected" r.Soundness.disconnected (fun (sc, stranded) ->
        Format.printf "  %a: %d stranded (%s%s)@." pp_sc sc
          (List.length stranded)
          (String.concat ", "
             (List.map name (List.filteri (fun i _ -> i < 6) stranded)))
          (if List.length stranded > 6 then ", ..." else ""));
    listing "diverged" r.Soundness.diverged (fun (sc, verdict) ->
        Format.printf "  %a: %a@." pp_sc sc
          (Solver.pp_verdict ~graph:net.Device.graph)
          verdict);
    Format.printf "abstraction: %d nodes, %d links@."
      (Abstraction.n_abstract abstraction)
      (Graph.n_links abstraction.Abstraction.abs_graph);
    (match r.Soundness.sweep with
    | { Fault_engine.failure = None; cut = Some _; checked } ->
      Format.printf
        "  fault soundness: unknown (budget ran out after %d of %d \
         scenarios)@."
        checked n_scenarios
    | { Fault_engine.failure = None; cut = None; _ } ->
      Format.printf
        "  fault soundness: ok (verdicts agree on every scenario)@."
    | { Fault_engine.failure = Some (sc, (m, _)); cut; _ } ->
      Format.printf "  fault soundness: BROKEN@.";
      if Option.is_some cut then
        Format.printf "  failing scenario (budget ran out shrinking it): %a@."
          pp_sc sc
      else Format.printf "  minimal failing scenario: %a@." pp_sc sc;
      Format.printf
        "  first diverging pair: %s vs %s (concrete %s, abstract %s)@."
        (name m.Soundness.mis_node)
        (Graph.name abstraction.Abstraction.abs_graph m.Soundness.mis_abs)
        (side m.Soundness.concrete_reaches m.Soundness.concrete_stable)
        (side m.Soundness.abstract_reaches m.Soundness.abstract_stable))
  | `Json -> print_json (Json.Obj (Soundness.report_json_fields r)));
  Printf.eprintf "%d scenarios in %.3fs (%.0f scenarios/sec), %d cache hits\n"
    n_scenarios r.Soundness.time_s
    (float_of_int n_scenarios /. max 1e-9 r.Soundness.time_s)
    r.Soundness.cache_hits;
  let { Fault_engine.failure; cut; _ } = r.Soundness.sweep in
  if n_disc + n_div > 0 || Option.is_some failure then 1
  else if r.Soundness.n_skipped > 0 || Option.is_some cut then 3
  else 0

(* --- harden ------------------------------------------------------------ *)

let harden_cmd_run spec ec_prefix k rounds samples seed format
    budget_ms budget_ticks certify audit certificate =
  guarded @@ fun () ->
  let net = resolve_network spec in
  let budget = make_budget budget_ms budget_ticks in
  let ec = Bonsai_api.find_class net ec_prefix in
  let g = net.Device.graph in
  let name = Graph.name g in
  let r =
    ok_or_raise
      (Repair.harden ~k ~rounds ?samples ~seed ~budget net ec)
  in
  let t = r.Repair.result.Bonsai_api.abstraction in
  let rn, re = Repair.ratio r in
  let pp_sc = Scenario.pp ~names:name in
  let mode = if r.Repair.plan_exhaustive then "exhaustive" else "sampled" in
  (match format with
  | `Text ->
    print_class_header net ec;
    Format.printf "harden: k=%d, %s scenarios, max %d repair round%s@."
      r.Repair.k mode rounds
      (if rounds = 1 then "" else "s");
    List.iter
      (fun (rl : Repair.round_log) ->
        match rl.Repair.rl_counterexample with
        | None ->
          Format.printf "round %d: %d nodes, %d links; sound (%d scenarios)@."
            rl.Repair.rl_round rl.Repair.rl_abs_nodes rl.Repair.rl_abs_links
            rl.Repair.rl_scenarios
        | Some sc ->
          Format.printf
            "round %d: %d nodes, %d links; counterexample %a (%d mismatched \
             node%s); pinned %d (total %d)@."
            rl.Repair.rl_round rl.Repair.rl_abs_nodes rl.Repair.rl_abs_links
            pp_sc sc
            (List.length rl.Repair.rl_mismatches)
            (if List.length rl.Repair.rl_mismatches = 1 then "" else "s")
            (List.length rl.Repair.rl_new_pins)
            rl.Repair.rl_total_pins)
      r.Repair.rounds;
    Format.printf "hardened: %d/%d nodes, %d/%d links (%.1fx / %.1fx)@."
      (Graph.n_nodes g) (Abstraction.n_abstract t)
      (Graph.n_links g)
      (Graph.n_links t.Abstraction.abs_graph)
      rn re;
    Format.printf
      "rounds: %d, counterexamples: %d, pins: %d, scenario checks: %d, \
       cache hits: %d@."
      (List.length r.Repair.rounds)
      r.Repair.n_counterexamples
      (List.length r.Repair.pins)
      r.Repair.n_scenarios r.Repair.cache_hits;
    (match r.Repair.fallback with
    | Bonsai_api.No_fallback ->
      if r.Repair.sound then
        Format.printf "fault soundness: ok (every swept scenario agrees)@."
      else begin
        Format.printf "fault soundness: BROKEN (repair disabled)@.";
        match List.rev r.Repair.rounds with
        | { Repair.rl_counterexample = Some sc; rl_mismatches = m :: _; _ }
          :: _ ->
          Format.printf "  minimal failing scenario: %a@." pp_sc sc;
          Format.printf "  first diverging pair: %s vs %s@."
            (name m.Soundness.mis_node)
            (Graph.name t.Abstraction.abs_graph m.Soundness.mis_abs)
        | _ -> ()
      end
    | Bonsai_api.Budget_fallback info ->
      Format.printf "@[<v>%a@]@." Bonsai_api.pp_degradation
        { Bonsai_api.deg_info = info; deg_completed = 0; deg_total = 1 }
    | Bonsai_api.Rounds_fallback ->
      Format.printf
        "DEGRADED: %d repair rounds exhausted; fell back to the identity \
         abstraction (sound, no compression)@."
        rounds)
  | `Json -> print_json (Json.Obj (Repair.json_fields net r)));
  (* certify the hardened abstraction itself — pins and repair rounds
     change the partition, so the witness must come from the result *)
  let cert_status =
    if certify then
      run_certify ~budget ~audit ~certificate net
        {
          Certify.network = spec;
          certs = [ Certify.of_ec_result net r.Repair.result ];
        }
    else `Skipped
  in
  match r.Repair.fallback with
  | Bonsai_api.Budget_fallback _ -> 3
  | Bonsai_api.Rounds_fallback ->
    Bonsai_error.exit_code (Bonsai_error.Soundness_break "")
  | Bonsai_api.No_fallback ->
    if r.Repair.sound then
      match cert_status with
      | `Incomplete -> 3
      | `Certified | `Skipped -> 0
    else Bonsai_error.exit_code (Bonsai_error.Soundness_break "")

(* --- certify (stored certificates) ------------------------------------- *)

(* `bonsai certify NETWORK CERT` re-checks a stored certificate file
   against the live configs. Everything that can go wrong with the file
   itself — unreadable, unparsable, malformed, refuted — is the same
   typed Certificate_failure (exit 8): a certificate that cannot be
   validated must never pass for one that was. *)
let certify_cmd_run spec cert_path audit budget_ms budget_ticks =
  guarded @@ fun () ->
  let net = resolve_network spec in
  let budget = make_budget budget_ms budget_ticks in
  let cert_failure fmt =
    Format.kasprintf
      (fun m -> Bonsai_error.error (Bonsai_error.Certificate_failure m))
      fmt
  in
  let text =
    try read_file cert_path
    with Sys_error m -> cert_failure "unreadable certificate: %s" m
  in
  let cert =
    match Json.parse text with
    | Error m -> cert_failure "unparsable certificate: %s" m
    | Ok j -> (
      match Certify.of_json j with
      | Error m -> cert_failure "malformed certificate: %s" m
      | Ok c -> c)
  in
  match Certify.check ~budget ~audit net cert with
  | Certify.Certified { ecs; obligations } ->
    Format.printf "certified: %d class%s, %d obligations (%s audit)@." ecs
      (if ecs = 1 then "" else "es")
      obligations
      (Certify.audit_to_string audit);
    0
  | Certify.Audit_incomplete info ->
    Format.printf "audit incomplete: budget ran out in %s@."
      info.Budget.phase;
    3
  | Certify.Refuted fs ->
    List.iter
      (fun (f : Certify.failure) ->
        Format.printf "REFUTED %s: %s: %s@." f.Certify.f_prefix
          f.Certify.f_condition f.Certify.f_detail)
      fs;
    cert_failure "%s" (Certify.failures_string fs)

(* --- explain ----------------------------------------------------------- *)

let explain_cmd_run spec a_name b_name ec_prefix =
  guarded @@ fun () ->
  let net = resolve_network spec in
  let ec = Bonsai_api.find_class net ec_prefix in
  let node = router net in
  (match Bonsai_api.explain net ec (node a_name) (node b_name) with
  | [] ->
    Format.printf "%s and %s play the same role for %a@." a_name b_name
      Prefix.pp ec.Ecs.ec_prefix
  | reasons ->
    Format.printf "%s and %s differ for %a:@." a_name b_name Prefix.pp
      ec.Ecs.ec_prefix;
    List.iter (Format.printf "  - %s@.") reasons);
  0

(* --- policy ----------------------------------------------------------- *)

let policy_cmd_run spec from_name to_name ec_prefix =
  guarded @@ fun () ->
  let net = resolve_network spec in
  let ec = Ecs.find net ec_prefix in
  let node = router net in
  let recv = node from_name and sender = node to_name in
  let u = Policy_bdd.universe_of_network net in
  let b = Policy_bdd.edge_policy u net ~dest:ec.Ecs.ec_prefix recv sender in
  Format.printf
    "policy for routes received at %s from %s (destination %a):@." from_name
    to_name Prefix.pp ec.Ecs.ec_prefix;
  (match Device.bgp_neighbor_config net.Device.routers.(recv) sender with
  | Some nb ->
    (match nb.Device.import_rm with
    | Some rm -> Format.printf "import route-map:@.%a@." Route_map.pp rm
    | None -> Format.printf "import: permit all@.")
  | None -> Format.printf "no BGP session@.");
  Format.printf "BDD: %d nodes@." (Bdd.size b);
  Format.printf "relation: %a@." (Policy_bdd.pp_policy u) b;
  0

(* --- export --------------------------------------------------------------- *)

let export_cmd_run spec path format =
  guarded @@ fun () ->
  let net = resolve_network spec in
  (match format with
  | "text" -> Config_text.save ~path net
  | "ios" ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Ios_print.to_string net))
  | f -> Format.kasprintf failwith "unknown format %S (text|ios)" f);
  Format.printf "wrote %s@." path;
  0

(* --- serve ------------------------------------------------------------- *)

let parse_host_port s =
  match String.rindex_opt s ':' with
  | None -> raise (Usage (Printf.sprintf "expected HOST:PORT, got %S" s))
  | Some i -> (
    let host = String.sub s 0 i in
    let host = if host = "" then "127.0.0.1" else host in
    match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
    | Some port -> (host, port)
    | None -> raise (Usage (Printf.sprintf "invalid port in %S" s)))

let serve_cmd_run stdio socket tcp max_inflight budget_ms budget_ticks
    max_networks checkpoint_path checkpoint_every =
  guarded @@ fun () ->
  let listen =
    match (stdio, socket, tcp) with
    | true, None, None -> Serve_loop.Stdio
    | false, Some path, None -> Serve_loop.Unix_socket path
    | false, None, Some hp ->
      let host, port = parse_host_port hp in
      Serve_loop.Tcp (host, port)
    | false, None, None ->
      raise (Usage "one of --stdio, --socket PATH or --tcp HOST:PORT is required")
    | _ -> raise (Usage "--stdio, --socket and --tcp are mutually exclusive")
  in
  (* the engine's default resolver answers an unknown spec as a
     bad-request instead of killing the server *)
  let engine = Serve_engine.create ?budget_ms ?budget_ticks ~max_networks () in
  Serve_loop.run ~engine ~listen ~max_inflight ?checkpoint_path
    ~checkpoint_every ()

(* --- request ----------------------------------------------------------- *)

(* One-shot client for a running serve instance: send the request line
   as given (the server is its one parser), print the one response line.
   An ok response exits 0 whatever it reports; an error response exits
   with its class's CLI code. *)
let request_cmd_run socket tcp line =
  guarded @@ fun () ->
  (* a second line would be a second request whose answer nobody reads *)
  if String.contains line '\n' then
    raise (Usage "REQUEST must be one line");
  let addr =
    match (socket, tcp) with
    | Some path, None -> Unix.ADDR_UNIX path
    | None, Some hp ->
      let host, port = parse_host_port hp in
      let inet =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> raise (Usage (Printf.sprintf "unknown host %S" host))
      in
      Unix.ADDR_INET (inet, port)
    | _ -> raise (Usage "exactly one of --socket or --tcp is required")
  in
  (* One request/response exchange on a fresh connection (the server is
     line-oriented but we reconnect per attempt, so a shed request never
     holds a socket open across its backoff sleep). *)
  let exchange () =
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (match Unix.connect fd addr with
        | () -> ()
        | exception Unix.Unix_error (e, _, _) ->
          Format.kasprintf failwith "cannot connect: %s"
            (Unix.error_message e));
        let payload = Bytes.of_string (line ^ "\n") in
        let len = Bytes.length payload in
        let rec send off =
          if off < len then send (off + Unix.write fd payload off (len - off))
        in
        send 0;
        let buf = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec recv () =
          if not (String.contains (Buffer.contents buf) '\n') then
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | n ->
              Buffer.add_subbytes buf chunk 0 n;
              recv ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv ()
        in
        recv ();
        let resp =
          match String.index_opt (Buffer.contents buf) '\n' with
          | Some i -> String.sub (Buffer.contents buf) 0 i
          | None -> Buffer.contents buf
        in
        if String.length resp = 0 then
          failwith "connection closed without a response";
        resp)
  in
  (* Overload is transient by definition — the server said so with its
     retry_after_ms hint. Honor it (floored by exponential backoff) for
     a bounded number of attempts instead of exiting 11 immediately.
     Only the final response line reaches stdout. *)
  let max_attempts = 5 in
  let bo = Backoff.create ~base_ms:100 ~cap_ms:5000 () in
  let overloaded_hint r =
    match Option.bind (Json.member "error" r) (Json.member "class") with
    | Some (Json.String "overloaded") ->
      Some
        (Option.value ~default:0
           (Option.bind
              (Option.bind (Json.member "error" r)
                 (Json.member "retry_after_ms"))
              Json.to_int_opt))
    | _ -> None
  in
  let rec go attempt =
    let resp = exchange () in
    let finish () =
      print_endline resp;
      match Json.parse resp with
      | Ok r
        when (match Json.member "ok" r with
             | Some v -> Json.equal v (Json.Bool true)
             | None -> false) ->
        0
      | Ok r -> (
        match Option.bind (Json.member "error" r) (Json.member "class") with
        | Some (Json.String cls) -> Protocol.exit_code_of_class cls
        | _ -> Bonsai_error.exit_code (Bonsai_error.Internal ""))
      | Error _ -> Bonsai_error.exit_code (Bonsai_error.Internal "")
    in
    match Json.parse resp with
    | Ok r when attempt < max_attempts -> (
      match overloaded_hint r with
      | Some hint_ms ->
        let ms = max hint_ms (Backoff.note_failure bo) in
        Printf.eprintf
          "request: server overloaded; retrying in %dms (attempt %d/%d)\n%!"
          ms (attempt + 1) max_attempts;
        Unix.sleepf (float_of_int ms /. 1000.0);
        go (attempt + 1)
      | None -> finish ())
    | _ -> finish ()
  in
  go 1

(* --- roles -------------------------------------------------------------- *)

let roles_cmd_run spec =
  guarded @@ fun () ->
  let net = resolve_network spec in
  Format.printf "semantic roles (BDD policy equality): %d@."
    (Bonsai_api.roles net);
  Format.printf "naive roles (unmatched communities kept): %d@."
    (Bonsai_api.roles ~keep_unmatched_comms:true net);
  0

(* --- command wiring ------------------------------------------------------ *)

open Cmdliner

(* Exit codes of the typed error taxonomy, shown in every --help. *)
let exits =
  Cmd.Exit.info 0 ~doc:"on success."
  :: Cmd.Exit.info 1
       ~doc:
         "on findings: error-severity lint diagnostics, a non-empty \
          $(b,diff) or $(b,dataplane-diff), or fault scenarios that \
          disconnect/diverge/break the abstraction."
  :: Cmd.Exit.info 3
       ~doc:
         "on budget exhaustion ($(b,--budget-ms)/$(b,--budget-ticks)); \
          the report names what fell back to the identity abstraction or \
          was left unchecked."
  :: Cmd.Exit.info 4 ~doc:"on configuration parse errors."
  :: Cmd.Exit.info 5 ~doc:"on compilation errors."
  :: Cmd.Exit.info 6 ~doc:"on solver divergence."
  :: Cmd.Exit.info 7
       ~doc:
         "on a soundness break (abstract and concrete disagree), or when \
          $(b,harden) runs out of repair rounds."
  :: Cmd.Exit.info 8
       ~doc:
         "on a certificate failure: the independent checker refuted a \
          $(b,--certify) result or a stored certificate. This is the one \
          answer to a refuted result."
  :: Cmd.Exit.info 9 ~doc:"on internal errors."
  :: List.filter
       (fun i -> Cmd.Exit.info_code i <> Cmd.Exit.ok)
       Cmd.Exit.defaults

let cmd_info name ~doc = Cmd.info name ~doc ~exits

let ec_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ec" ] ~docv:"PREFIX"
        ~doc:"Destination class to operate on (default: the first).")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc:"Output format (text|json).")

let budget_ms_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock budget in milliseconds. When it runs out the tool \
           stops the expensive phases and exits 3. Classes the budget did \
           not reach fall back to the identity abstraction (every router \
           its own role: always sound, no compression), flagged degraded \
           and reported.")

let budget_ticks_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget-ticks" ] ~docv:"N"
        ~doc:
          "Deterministic work budget: one tick per solver activation, \
           refinement iteration, or uncached BDD operation. Exhaustion \
           behaves like $(b,--budget-ms); useful for reproducible tests.")

let info_cmd =
  Cmd.v
    (cmd_info "info" ~doc:"Describe a network")
    Term.(const info_cmd_run $ network_arg)

let certify_flag =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Export the result as a certificate and re-validate it with the \
           independent checker (fresh BDD universe, executable route-map \
           semantics). A refuted certificate exits 8; an audit that runs \
           out of budget is reported incomplete (exit 3), never falsely \
           certified.")

let audit_arg =
  Arg.(
    value
    & opt (enum [ ("full", Certify.Full); ("sample", Certify.Sample) ])
        Certify.Sample
    & info [ "audit" ] ~docv:"LEVEL"
        ~doc:
          "Audit granularity for certification: $(b,sample) (default) \
           checks every condition but spot-checks per-member/per-edge \
           agreement obligations; $(b,full) checks every member and every \
           concrete edge.")

let certificate_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "certificate" ] ~docv:"PATH"
        ~doc:
          "Write the certificate as JSON to $(docv) (checkable later with \
           $(b,bonsai certify)).")

let compress_cmd =
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"PATH"
          ~doc:
            "Write the class's abstract topology as DOT (one class only: \
             not with $(b,--all)).")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Compress every destination class, not just the $(b,--ec) one \
             (whose JSON row also lists its roles). Both print the \
             document serve's $(i,compress) answers.")
  in
  let check_dataplane =
    Arg.(
      value & flag
      & info [ "check-dataplane" ]
          ~doc:
            "Compile the concrete and abstract per-class forwarding tables \
             (LPM FIBs with ACLs folded in) and check they bisimulate: \
             trace every destination class from every role representative \
             through both. A diverging (router, prefix, path) witness is a \
             soundness break (exit 7); classes the budget leaves unchecked \
             exit 3.")
  in
  Cmd.v
    (cmd_info "compress"
       ~doc:
         "Compress one destination class ($(b,--ec), default the first) or \
          every class ($(b,--all)) into one summary")
    Term.(
      const compress_cmd_run $ network_arg $ ec_arg $ dot $ all
      $ check_dataplane $ format_arg $ budget_ms_arg $ budget_ticks_arg
      $ certify_flag $ audit_arg $ certificate_arg)

(* The two positional specs of [diff] and [dataplane-diff]. *)
let old_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"OLD"
        ~doc:"Old network specification (e.g. file:PATH or fattree:4).")

let new_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"NEW" ~doc:"New network specification.")

let diff_cmd =
  Cmd.v
    (cmd_info "diff"
       ~doc:
         "Diff two network configurations into semantic deltas and \
          incrementally recompress the old network under them (exit 1 iff \
          the networks differ): classes whose refinement inputs are \
          untouched are reused verbatim, the rest re-refine from the \
          surviving partition or recompute against the policy-signature \
          cache.")
    Term.(
      const diff_cmd_run $ old_arg $ new_arg $ format_arg $ budget_ms_arg
      $ budget_ticks_arg $ certify_flag $ audit_arg $ certificate_arg)

let dataplane_diff_cmd =
  Cmd.v
    (cmd_info "dataplane-diff"
       ~doc:
         "Report the exact forwarding-table changes a configuration change \
          produces: per (router, prefix), added/removed/modified FIB \
          entries with old and new ECMP next-hop sets and ACL-induced \
          drops. Destination classes whose solution is provably untouched \
          by the deltas (same origins, equal policy signatures on every \
          touched-incident edge, stable OSPF liveness) are reused without \
          recompilation — only dirty classes are recompiled on both \
          networks. Exit 0 when the data planes are identical, 1 when any \
          entry changed, 3 when the budget left classes unknown (they are \
          always listed, never silently omitted).")
    Term.(
      const dataplane_diff_cmd_run $ old_arg $ new_arg $ format_arg
      $ budget_ms_arg $ budget_ticks_arg)

let watch_cmd =
  let path_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PATH"
          ~doc:
            "Configuration file to watch, or a directory whose *.cfg/*.conf \
             files (concatenated in name order) form one network.")
  in
  let poll_ms =
    Arg.(
      value & opt int 500
      & info [ "poll-ms" ] ~docv:"MS" ~doc:"Polling interval.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Compress the current contents, report, and exit instead of \
             watching (for scripting and tests).")
  in
  let max_events =
    Arg.(
      value & opt int 0
      & info [ "max-events" ] ~docv:"N"
          ~doc:
            "Exit 0 after N recompression events (0: watch forever). For \
             scripting and tests.")
  in
  Cmd.v
    (cmd_info "watch"
       ~doc:
         "Watch a configuration file or directory and incrementally \
          re-compress on every change. A parse error mid-watch keeps the \
          previous network alive (diagnostics on stderr); every event is \
          budget-governed by $(b,--budget-ms)/$(b,--budget-ticks) with the \
          same degradation rules as compress.")
    Term.(
      const watch_cmd_run $ path_arg $ poll_ms $ once $ max_events
      $ format_arg $ budget_ms_arg $ budget_ticks_arg)

let lint_cmd =
  let min_severity =
    Arg.(
      value
      & opt
          (enum
             [
               ("info", Diag.Info);
               ("warning", Diag.Warning);
               ("error", Diag.Error);
             ])
          Diag.Info
      & info [ "min-severity" ] ~docv:"SEV"
          ~doc:"Hide diagnostics below this severity (error|warning|info).")
  in
  let list_checks =
    Arg.(
      value & flag
      & info [ "list-checks" ] ~doc:"List every check and exit.")
  in
  Cmd.v
    (cmd_info "lint"
       ~doc:
         "Run the semantic configuration linter (exit 1 iff any \
          error-severity diagnostic; file:PATH networks get file:line \
          positions)")
    Term.(
      const lint_cmd_run $ network_arg $ format_arg $ min_severity
      $ list_checks)

let flow_cmd =
  let facts =
    Arg.(
      value & flag
      & info [ "facts" ]
          ~doc:
            "Also dump the provenance fixpoint for the class selected by \
             $(b,--ec) (default: the first): per router and plane, the \
             possible route origins, their taint, and the communities the \
             route may carry, grouped by compressed role.")
  in
  Cmd.v
    (cmd_info "flow"
       ~doc:
         "Whole-network route-provenance dataflow analysis: push (origin, \
          taint, communities) facts over every way a route can propagate — \
          OSPF adjacencies, deliverable BGP sessions, redistribution — to \
          a fixpoint, then report cross-protocol route leaks, unintended \
          transit (Gao-Rexford violations), communities matched where no \
          reachable origin can set them, and the upstream policy \
          divergence blocking compression. Facts over-approximate the \
          simulator, so every \"no origin can do X\" verdict is sound. \
          Exit 0 clean, 1 findings at warning or above, 3 budget exhausted \
          (facts degrade to unknown, never to partial state).")
    Term.(
      const flow_cmd_run $ network_arg $ ec_arg $ format_arg $ facts
      $ budget_ms_arg $ budget_ticks_arg)

let verify_cmd =
  let src =
    Arg.(
      required
      & opt (some string) None
      & info [ "src" ] ~docv:"ROUTER" ~doc:"Source router name.")
  in
  Cmd.v
    (cmd_info "verify"
       ~doc:
         "Answer a reachability query on the concrete and compressed \
          network (exit 7 if they disagree)")
    Term.(const verify_cmd_run $ network_arg $ src $ ec_arg)

let roles_cmd =
  Cmd.v
    (cmd_info "roles" ~doc:"Count unique router roles")
    Term.(const roles_cmd_run $ network_arg)

let policy_cmd =
  let from_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "from" ] ~docv:"ROUTER" ~doc:"Receiving router.")
  in
  let to_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "to" ] ~docv:"ROUTER" ~doc:"Sending neighbor.")
  in
  Cmd.v
    (cmd_info "policy"
       ~doc:"Show an interface's routing policy and its BDD (paper Figure 10)")
    Term.(const policy_cmd_run $ network_arg $ from_arg $ to_arg $ ec_arg)

let trace_cmd =
  let src =
    Arg.(
      required
      & opt (some string) None
      & info [ "src" ] ~docv:"ROUTER" ~doc:"Source router.")
  in
  let addr =
    Arg.(
      required
      & opt (some string) None
      & info [ "addr" ] ~docv:"A.B.C.D" ~doc:"Destination address.")
  in
  let all =
    Arg.(value & flag & info [ "all" ] ~doc:"Follow every ECMP next hop.")
  in
  Cmd.v
    (cmd_info "trace" ~doc:"Trace a packet through the data plane")
    Term.(const trace_cmd_run $ network_arg $ src $ addr $ all)

let explain_cmd =
  let a_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "a" ] ~docv:"ROUTER" ~doc:"First router.")
  in
  let b_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "b" ] ~docv:"ROUTER" ~doc:"Second router.")
  in
  Cmd.v
    (cmd_info "explain" ~doc:"Explain why two routers play different roles")
    Term.(const explain_cmd_run $ network_arg $ a_arg $ b_arg $ ec_arg)

(* The failure bound and sampling seed of faults and harden. *)
let k_arg =
  Arg.(
    value & opt int 1
    & info [ "k"; "kmax" ] ~docv:"K"
        ~doc:
          "Maximum number of simultaneous link failures per scenario; at \
           least 1, since a bound of 0 leaves no scenario to check.")

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Sampling seed.")

let faults_cmd =
  let samples =
    Arg.(
      value
      & opt (some int) None
      & info [ "samples" ] ~docv:"N"
          ~doc:
            "Force sampling with N scenarios (default: exhaustive when the \
             scenario space is small, 256 samples otherwise).")
  in
  Cmd.v
    (cmd_info "faults"
       ~doc:
         "Re-solve the network under link-failure scenarios and check the \
          abstraction stays sound under each (exit 1 iff any scenario \
          disconnects a router, diverges, or breaks the abstraction; one \
          budget bounds both the survey and the soundness sweep — \
          scenarios it cannot afford are reported as skipped, a sweep it \
          cuts short as unknown soundness, exit 3)")
    Term.(
      const faults_cmd_run $ network_arg $ ec_arg $ k_arg $ samples $ seed_arg
      $ format_arg $ budget_ms_arg $ budget_ticks_arg)

let harden_cmd =
  let rounds =
    Arg.(
      value & opt int 8
      & info [ "rounds" ] ~docv:"N"
          ~doc:
            "Maximum repair rounds (recompressions with a grown pin set). \
             0 disables repair: the sweep only diagnoses, and a \
             counterexample exits 7 with the unrepaired abstraction.")
  in
  let samples =
    Arg.(
      value
      & opt (some int) None
      & info [ "samples" ] ~docv:"N"
          ~doc:
            "Initial sample size when the scenario space exceeds the \
             exhaustive cap of 1024 scenarios (default 64; doubles every \
             repair round).")
  in
  Cmd.v
    (cmd_info "harden"
       ~doc:
         "Compress with counterexample-guided repair until the abstraction \
          is sound under every swept failure scenario: on a soundness break \
          the disagreeing routers are pinned into singleton roles and the \
          network is recompressed. Budget or round exhaustion falls back to \
          the identity abstraction (sound, no compression) rather than \
          emitting an unsound result: exit 3 when the budget ran out, 7 \
          when the repair rounds did.")
    Term.(
      const harden_cmd_run $ network_arg $ ec_arg $ k_arg $ rounds $ samples
      $ seed_arg $ format_arg $ budget_ms_arg $ budget_ticks_arg
      $ certify_flag $ audit_arg $ certificate_arg)

let certify_cmd =
  let cert_path_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"CERT"
          ~doc:
            "Certificate file (JSON written by $(b,--certificate)) to check \
             against $(i,NETWORK).")
  in
  Cmd.v
    (cmd_info "certify"
       ~doc:
         "Independently check a stored compression certificate against the \
          live configuration: partition well-formedness, the paper's \
          Figure-4 bisimulation conditions (dest equivalence, ∀∃, transfer \
          and rank agreement) and stability of the claimed abstract \
          labeling — in a fresh BDD universe, with a BDD-free route-map \
          spot check. An unreadable, malformed, or refuted certificate \
          exits 8.")
    Term.(
      const certify_cmd_run $ network_arg $ cert_path_arg $ audit_arg
      $ budget_ms_arg $ budget_ticks_arg)

let export_cmd =
  let path =
    Arg.(
      required
      & opt (some string) None
      & info [ "o" ] ~docv:"PATH" ~doc:"Output file.")
  in
  let format =
    Arg.(
      value & opt string "text"
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output format: our text format or Cisco-IOS flavor (text|ios).")
  in
  Cmd.v
    (cmd_info "export" ~doc:"Write a network as a configuration file")
    Term.(const export_cmd_run $ network_arg $ path $ format)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"TCP endpoint.")

let serve_cmd =
  let stdio =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:
            "Speak the protocol on stdin/stdout instead of a socket \
             (deterministic; used by the golden tests).")
  in
  let max_inflight =
    Arg.(
      value & opt int 16
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Admission-queue bound: requests beyond N in flight receive a \
             typed $(i,overloaded) response with a retry hint instead of \
             queueing without bound.")
  in
  let max_networks =
    Arg.(
      value & opt int 8
      & info [ "max-networks" ] ~docv:"N"
          ~doc:
            "Bound the warm registry to N compressed networks (LRU; \
             default 8).")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"PATH"
          ~doc:
            "Persist warm state (compressed classes + signature caches) \
             here: written atomically on shutdown and every \
             $(b,--checkpoint-every) requests, restored on startup. A \
             corrupt or version-skewed checkpoint logs a warning and \
             serves cold.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 0
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Also checkpoint every N processed requests (0: only at \
                shutdown).")
  in
  Cmd.v
    (cmd_info "serve"
       ~doc:
         (Printf.sprintf
            "Run the resident engine: NDJSON requests (%s) over a unix/TCP \
             socket or stdio, against a registry of warm networks. Every \
             request runs under its own budget clamped by the server-wide \
             $(b,--budget-ms)/$(b,--budget-ticks); overload sheds with a \
             typed response; SIGTERM/SIGINT drain in-flight work and \
             checkpoint warm state."
            (String.concat ", " Serve_engine.op_names)))
    Term.(
      const serve_cmd_run $ stdio $ socket_arg $ tcp_arg $ max_inflight
      $ budget_ms_arg $ budget_ticks_arg $ max_networks
      $ checkpoint $ checkpoint_every)

let request_cmd =
  let request =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REQUEST"
          ~doc:
            (Printf.sprintf
               "One request line of the serve protocol, sent as given: a \
                JSON object with an $(i,op) (%s), an optional $(i,id), and \
                the op's parameters, e.g. \
                '{\"op\":\"compress\",\"network\":\"ring:6\"}'."
               (String.concat ", " Serve_engine.op_names)))
  in
  Cmd.v
    (cmd_info "request"
       ~doc:
         "Send one request line to a running $(b,bonsai serve) and print \
          the response line. An $(i,overloaded) response is sent again up \
          to four times, honoring the server's retry_after_ms hint \
          (floored by exponential backoff). An $(i,ok) response exits 0 \
          whatever it reports (lint errors and broken fault scenarios \
          included); an error response exits with its class's code (budget \
          3, parse 4, compile 5, and so on; 124 for a bad request such as \
          invalid JSON, an unknown op or a parameter the op does not read; \
          11 when the server shed the request as overloaded).")
    Term.(const request_cmd_run $ socket_arg $ tcp_arg $ request)


let () =
  let doc = "Bonsai: control plane compression (SIGCOMM 2018 reproduction)" in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "bonsai" ~version:"1.0.0" ~doc ~exits)
          [ info_cmd; compress_cmd; certify_cmd; diff_cmd; dataplane_diff_cmd; watch_cmd; lint_cmd; flow_cmd; verify_cmd; roles_cmd; export_cmd; policy_cmd; explain_cmd; trace_cmd; faults_cmd; harden_cmd; serve_cmd; request_cmd ]))
