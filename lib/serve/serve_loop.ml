(* The server around the engine: sockets, admission, drain, checkpoint.

   Three transports share one ingestion path:

   - stdio: NDJSON on stdin/stdout, for golden tests and piping. Reads
     are chunked; each batch of complete lines is ingested (sheds
     answered immediately), then the queue drains fully before the next
     read — with a regular file on stdin the whole input arrives in the
     first read, so overload behavior is deterministic and goldenable.
   - unix / tcp: a select loop. Per iteration: ingest every complete
     line from every readable connection, then process exactly ONE
     queued request — admission is re-examined between requests, so a
     burst beyond --max-inflight sheds instead of buffering unboundedly.

   Control-plane ops (health, stats) bypass the admission queue: an
   overloaded server still answers them — that is the point of having
   them.

   Shutdown (SIGTERM, SIGINT, or the shutdown op) drains: in-flight and
   queued requests get [drain_s] (2 s) of wall-clock to finish,
   stragglers are answered with a typed overloaded("server draining")
   response, warm state is checkpointed, and the process exits 0.

   Warm state enters only through requests (a client sends
   {"op":"load",...}) or a checkpoint restore. *)

type listen = Stdio | Unix_socket of string | Tcp of string * int

let control_op = function "health" | "stats" -> true | _ -> false

(* One queued unit: the raw line plus where its response goes. *)
type job = { j_line : string; j_out : string -> unit }

let log fmt = Format.eprintf ("bonsai serve: " ^^ fmt ^^ "@.")

(* --- shared ingestion / processing ------------------------------------ *)

type server = {
  eng : Serve_engine.t;
  sched : job Scheduler.t;
  mutable stop : bool;
  checkpoint_path : string option;
  checkpoint_every : int;
}

let drain_s = 2.0

let maybe_checkpoint sv =
  match sv.checkpoint_path with
  | Some path
    when sv.checkpoint_every > 0
         && Serve_engine.requests sv.eng mod sv.checkpoint_every = 0 -> (
    match Serve_engine.checkpoint sv.eng ~path with
    | Ok _ -> ()
    | Error m -> log "checkpoint failed: %s" m)
  | _ -> ()

let final_checkpoint sv =
  match sv.checkpoint_path with
  | None -> ()
  | Some path -> (
    match Serve_engine.checkpoint sv.eng ~path with
    | Ok n -> log "checkpointed %d network%s" n (if n = 1 then "" else "s")
    | Error m -> log "checkpoint failed: %s" m)

(* Every quarantine becomes one structured incident line on stderr, and
   the checkpoint is rewritten immediately: the quarantined entry must
   be gone from disk before a crash could resurrect it. *)
let flush_incidents sv =
  match Serve_engine.drain_incidents sv.eng with
  | [] -> ()
  | incidents ->
    List.iter
      (fun (spec, detail) ->
        log "%s"
          (Json.to_string
             (Json.Obj
                [
                  ("event", Json.String "certificate-incident");
                  ("network", Json.String spec);
                  ("action", Json.String "quarantined");
                  ("detail", Json.String detail);
                ])))
      incidents;
    (match sv.checkpoint_path with
    | None -> ()
    | Some path -> (
      match Serve_engine.checkpoint sv.eng ~path with
      | Ok _ -> ()
      | Error m -> log "checkpoint failed: %s" m))

let ingest sv out line =
  if String.length line = 0 then ()
  else
    let parsed = Protocol.parse_request line in
    match parsed with
    | Ok req when control_op req.Protocol.req_op ->
      let resp, _ =
        Serve_engine.handle_line sv.eng
          ~queue_depth:(Scheduler.depth sv.sched) line
      in
      out resp
    | _ -> (
      match Scheduler.submit sv.sched { j_line = line; j_out = out } with
      | `Admitted -> ()
      | `Shed retry_after_ms ->
        Serve_engine.note_shed sv.eng;
        let id, op =
          match parsed with
          | Ok r -> (r.Protocol.req_id, r.Protocol.req_op)
          | Error _ -> (Json.Null, "unknown")
        in
        out
          (Protocol.overloaded ~id ~op ~retry_after_ms "server overloaded"))

(* Process one queued request; true if one was processed. *)
let step sv =
  match Scheduler.take sv.sched with
  | None -> false
  | Some job ->
    let resp, k =
      Serve_engine.handle_line sv.eng
        ~queue_depth:(Scheduler.depth sv.sched) job.j_line
    in
    job.j_out resp;
    (match k with `Shutdown -> sv.stop <- true | `Continue -> ());
    flush_incidents sv;
    maybe_checkpoint sv;
    true

(* Graceful drain: finish what we can inside the deadline, answer the
   rest with a typed response, persist warm state. *)
let drain sv =
  let deadline = Timing.monotonic_now () +. drain_s in
  let rec go () =
    if Scheduler.depth sv.sched > 0 && Timing.monotonic_now () < deadline
    then
      if step sv then go ()
  in
  go ();
  let rec flush_rest () =
    match Scheduler.take sv.sched with
    | None -> ()
    | Some job ->
      let id, op =
        match Protocol.parse_request job.j_line with
        | Ok r -> (r.Protocol.req_id, r.Protocol.req_op)
        | Error _ -> (Json.Null, "unknown")
      in
      job.j_out
        (Protocol.overloaded ~id ~op ~retry_after_ms:0 "server draining");
      flush_rest ()
  in
  flush_rest ();
  final_checkpoint sv

(* Complete lines out of an accumulation buffer; the partial tail stays. *)
let split_lines buf =
  let s = Buffer.contents buf in
  let rec go start acc =
    match String.index_from_opt s start '\n' with
    | Some i -> go (i + 1) (String.sub s start (i - start) :: acc)
    | None ->
      Buffer.clear buf;
      Buffer.add_substring buf s start (String.length s - start);
      List.rev acc
  in
  go 0 []

let install_signal_handlers sv =
  let stop _ = sv.stop <- true in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop)
   with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop)
   with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

(* --- stdio ------------------------------------------------------------- *)

let run_stdio sv =
  install_signal_handlers sv;
  let out line =
    print_string line;
    print_char '\n';
    flush stdout
  in
  let buf = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let rec loop () =
    if sv.stop then drain sv
    else begin
      let n = In_channel.input In_channel.stdin chunk 0 (Bytes.length chunk) in
      if n = 0 then begin
        (* EOF: a trailing unterminated line still counts as a request *)
        if Buffer.length buf > 0 then begin
          ingest sv out (Buffer.contents buf);
          Buffer.clear buf
        end;
        while (not sv.stop) && step sv do
          ()
        done;
        if sv.stop then drain sv else final_checkpoint sv
      end
      else begin
        Buffer.add_subbytes buf chunk 0 n;
        List.iter (ingest sv out) (split_lines buf);
        while (not sv.stop) && step sv do
          ()
        done;
        if sv.stop then drain sv else loop ()
      end
    end
  in
  loop ();
  0

(* --- sockets ----------------------------------------------------------- *)

type conn = {
  c_fd : Unix.file_descr;
  c_buf : Buffer.t;
  mutable c_alive : bool;
}

let conn_out conn line =
  if conn.c_alive then begin
    let payload = Bytes.of_string (line ^ "\n") in
    let len = Bytes.length payload in
    let rec write off =
      if off < len then begin
        match Unix.write conn.c_fd payload off (len - off) with
        | n -> write (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> write off
        | exception Unix.Unix_error (_, _, _) ->
          (* peer went away mid-response; the request was already done *)
          conn.c_alive <- false
      end
    in
    write 0
  end

let close_conn conn =
  if conn.c_alive then conn.c_alive <- false;
  try Unix.close conn.c_fd with Unix.Unix_error (_, _, _) -> ()

let read_conn sv conn =
  let chunk = Bytes.create 65536 in
  match Unix.read conn.c_fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> close_conn conn
  | 0 ->
    (* orderly EOF: an unterminated trailing line is still a request *)
    if Buffer.length conn.c_buf > 0 then begin
      ingest sv (conn_out conn) (Buffer.contents conn.c_buf);
      Buffer.clear conn.c_buf
    end;
    close_conn conn
  | n ->
    Buffer.add_subbytes conn.c_buf chunk 0 n;
    List.iter (ingest sv (conn_out conn)) (split_lines conn.c_buf);
    if Buffer.length conn.c_buf > Protocol.max_line_bytes then begin
      (* unbounded garbage with no newline: answer and hang up *)
      conn_out conn
        (Protocol.bad_request ~id:Json.Null ~op:"unknown"
           (Printf.sprintf "request exceeds %d bytes" Protocol.max_line_bytes));
      close_conn conn
    end

let run_socket sv sock_addr cleanup =
  install_signal_handlers sv;
  let listener = Unix.socket (Unix.domain_of_sockaddr sock_addr) Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  (match Unix.bind listener sock_addr with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
    log "cannot bind: %s" (Unix.error_message e);
    exit 125);
  Unix.listen listener 64;
  log "listening";
  let conns = ref [] in
  let rec loop () =
    if sv.stop then ()
    else begin
      let fds = listener :: List.map (fun c -> c.c_fd) !conns in
      (* block only when idle; with queued work just poll for new input;
         with a pending self-audit, wake shortly to run one step *)
      let timeout =
        if Scheduler.depth sv.sched > 0 then 0.0
        else if Serve_engine.audit_pending sv.eng then 0.05
        else -1.0
      in
      let readable =
        match Unix.select fds [] [] timeout with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      (* idle and nothing arrived: spend the moment self-auditing one
         warm network under a small budget *)
      if
        readable = []
        && Scheduler.depth sv.sched = 0
        && Serve_engine.audit_pending sv.eng
      then begin
        (match
           Serve_engine.audit_step
             ~budget:(Budget.create ~deadline_s:0.25 ())
             sv.eng
         with
        | Serve_engine.Audit_quarantined (spec, _) ->
          log "self-audit quarantined %s" spec
        | Serve_engine.Audit_idle | Serve_engine.Audit_clean _
        | Serve_engine.Audit_unfinished _ ->
          ());
        flush_incidents sv
      end;
      if List.memq listener readable then begin
        match Unix.accept listener with
        | fd, _ ->
          conns :=
            { c_fd = fd; c_buf = Buffer.create 4096; c_alive = true }
            :: !conns
        | exception Unix.Unix_error (_, _, _) -> ()
      end;
      List.iter
        (fun c -> if List.memq c.c_fd readable then read_conn sv c)
        !conns;
      conns := List.filter (fun c -> c.c_alive) !conns;
      ignore (step sv : bool);
      loop ()
    end
  in
  loop ();
  log "draining (%.0fs deadline)" drain_s;
  drain sv;
  List.iter close_conn !conns;
  (try Unix.close listener with Unix.Unix_error (_, _, _) -> ());
  cleanup ();
  0

(* --- entry point -------------------------------------------------------- *)

let run ~engine ~listen ?(max_inflight = 16) ?checkpoint_path
    ?(checkpoint_every = 0) () =
  let sv =
    {
      eng = engine;
      sched = Scheduler.create ~max_inflight;
      stop = false;
      checkpoint_path;
      checkpoint_every;
    }
  in
  (* restore warm state before accepting the first request; failure is a
     warning and a cold start, never a refusal to serve *)
  (match checkpoint_path with
  | None -> ()
  | Some path -> (
    match Serve_engine.restore engine ~path with
    | `Restored n ->
      log "restored %d network%s from checkpoint" n (if n = 1 then "" else "s")
    | `Missing -> ()
    | `Version_skew reason -> log "cold start: checkpoint version skew: %s" reason
    | `Corrupt reason -> log "cold start: corrupt checkpoint: %s" reason));
  match listen with
  | Stdio -> run_stdio sv
  | Unix_socket path ->
    (* a previous unclean death leaves the socket file behind *)
    (try Unix.unlink path with Unix.Unix_error (_, _, _) -> ());
    run_socket sv (Unix.ADDR_UNIX path) (fun () ->
        try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
  | Tcp (host, port) ->
    let addr =
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> Unix.inet_addr_loopback
    in
    run_socket sv (Unix.ADDR_INET (addr, port)) (fun () -> ())
