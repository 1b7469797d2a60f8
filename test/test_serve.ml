(* Tests for the resident engine (lib/serve): the JSON codec, protocol
   framing, the bounded admission queue, the checkpoint format's three
   corruption guards, the engine's crash-proof request boundary (budget
   isolation, typed errors, warm-state restore), its one bounded
   registry, and the agreement of the CLI's --format json output with
   the engine's responses.

   The QCheck iteration count defaults to a small CI-friendly number and
   scales with FUZZ_COUNT (e.g. `FUZZ_COUNT=500 dune exec
   test/test_serve.exe`). *)

let fuzz_count =
  match Option.bind (Sys.getenv_opt "FUZZ_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 40

(* --- Json -------------------------------------------------------------- *)

let sample_values =
  [
    Json.Null;
    Json.Bool true;
    Json.Int (-42);
    Json.Float 1.5;
    Json.String "plain";
    Json.String "esc \"quote\" \\ back \n tab \t nul \x00 high \xc3\xa9";
    Json.List [ Json.Int 1; Json.Null; Json.List [] ];
    Json.Obj
      [
        ("a", Json.Int 1);
        ("nested", Json.Obj [ ("b", Json.List [ Json.Bool false ]) ]);
        ("", Json.String "empty key");
      ];
  ]

let test_json_roundtrip () =
  List.iter
    (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok v' ->
        Alcotest.(check bool)
          (Printf.sprintf "roundtrip %s" (Json.to_string v))
          true (Json.equal v v')
      | Error m -> Alcotest.failf "reparse failed: %s" m)
    sample_values

let test_json_rejects () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [
      "";
      "{";
      "[1,]";
      "{\"a\":}";
      "tru";
      "1 2";
      "\"unterminated";
      "{\"a\" 1}";
      "nan";
      (* nesting beyond the depth bound must be an error, not a stack
         overflow *)
      String.concat "" (List.init 500 (fun _ -> "["))
      ^ String.concat "" (List.init 500 (fun _ -> "]"));
    ]

let test_json_nonfinite () =
  Alcotest.(check string)
    "nan renders null" "null"
    (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string)
    "inf renders null" "null"
    (Json.to_string (Json.Float Float.infinity))

(* --- Protocol ----------------------------------------------------------- *)

let test_protocol_parse () =
  (match Protocol.parse_request "{\"id\":7,\"op\":\"health\"}" with
  | Ok r ->
    Alcotest.(check bool) "id echoed" true (Json.equal r.Protocol.req_id (Json.Int 7));
    Alcotest.(check string) "op" "health" r.Protocol.req_op
  | Error m -> Alcotest.failf "parse failed: %s" m);
  List.iter
    (fun s ->
      match Protocol.parse_request s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [
      "[]";
      "{}";
      "{\"op\":\"\"}";
      "{\"op\":3}";
      "not json";
      String.make (Protocol.max_line_bytes + 1) 'x';
    ]

let test_protocol_exit_codes () =
  let check cls code =
    Alcotest.(check int) cls code (Protocol.exit_code_of_class cls)
  in
  check "budget-exceeded" 3;
  check "parse-error" 4;
  check "compile-error" 5;
  check "divergence" 6;
  check "soundness-break" 7;
  check "internal" 9;
  check "bad-request" 124;
  check "overloaded" 11;
  check "never-heard-of-it" 9

(* --- Scheduler ---------------------------------------------------------- *)

let test_scheduler_fifo_and_shed () =
  let q = Scheduler.create ~max_inflight:2 in
  Alcotest.(check bool) "a admitted" true
    (match Scheduler.submit q "a" with `Admitted -> true | `Shed _ -> false);
  Alcotest.(check bool) "b admitted" true
    (match Scheduler.submit q "b" with `Admitted -> true | `Shed _ -> false);
  (match Scheduler.submit q "c" with
  | `Admitted -> Alcotest.fail "c must be shed"
  | `Shed retry ->
    Alcotest.(check int) "deterministic retry hint" 200 retry);
  Alcotest.(check (option string)) "fifo" (Some "a") (Scheduler.take q);
  Alcotest.(check bool) "room again" true
    (match Scheduler.submit q "c" with `Admitted -> true | `Shed _ -> false);
  Alcotest.(check (option string)) "fifo 2" (Some "b") (Scheduler.take q);
  Alcotest.(check (option string)) "fifo 3" (Some "c") (Scheduler.take q);
  Alcotest.(check (option string)) "empty" None (Scheduler.take q);
  Alcotest.(check int) "admitted count" 3 (Scheduler.admitted q);
  Alcotest.(check int) "shed count" 1 (Scheduler.shed q);
  Alcotest.check_raises "max_inflight < 1 rejected"
    (Invalid_argument "Scheduler.create: max_inflight < 1") (fun () ->
      ignore (Scheduler.create ~max_inflight:0))

(* --- Checkpoint --------------------------------------------------------- *)

let with_tmp f =
  let path = Filename.temp_file "bonsai_test" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_checkpoint_roundtrip () =
  with_tmp @@ fun path ->
  let v = [ ("ring:4", [ 1; 2; 3 ]); ("mesh:9", []) ] in
  (match Checkpoint.save ~path v with
  | Ok () -> ()
  | Error m -> Alcotest.failf "save: %s" m);
  match
    (Checkpoint.load ~path
      : ((string * int list) list, Checkpoint.load_error) result)
  with
  | Ok v' -> Alcotest.(check bool) "payload restored" true (v = v')
  | Error e -> Alcotest.failf "load: %a" Checkpoint.pp_load_error e

(* Durability: save must fsync the temp file before the rename and the
   containing directory after it — a rename-only save (the old path)
   leaves both the payload and the rename itself in the page cache, so a
   power cut after "save succeeded" could surface the stale or missing
   checkpoint. sync_count is the save path's witness counter. *)
let test_checkpoint_fsync () =
  with_tmp @@ fun path ->
  let before = Checkpoint.sync_count () in
  (match Checkpoint.save ~path [ 7; 8; 9 ] with
  | Ok () -> ()
  | Error m -> Alcotest.failf "save: %s" m);
  let synced = Checkpoint.sync_count () - before in
  Alcotest.(check bool)
    (Printf.sprintf "save fsyncs file and directory (saw %d)" synced)
    true (synced >= 2);
  match (Checkpoint.load ~path : (int list, Checkpoint.load_error) result) with
  | Ok v -> Alcotest.(check (list int)) "payload intact" [ 7; 8; 9 ] v
  | Error e -> Alcotest.failf "load: %a" Checkpoint.pp_load_error e

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let expect_load path expected =
  match (Checkpoint.load ~path : (int list, Checkpoint.load_error) result) with
  | Ok _ -> Alcotest.failf "load accepted a damaged checkpoint"
  | Error e -> (
    match (e, expected) with
    | Checkpoint.Corrupt _, `Corrupt
    | Checkpoint.Version_skew _, `Skew
    | Checkpoint.Missing, `Missing ->
      ()
    | _ ->
      Alcotest.failf "wrong error class: %a" Checkpoint.pp_load_error e)

let test_checkpoint_guards () =
  with_tmp @@ fun path ->
  (* missing: load before any save (the tmp file exists but is empty —
     an empty file has no header, i.e. Corrupt; true Missing needs no
     file at all) *)
  expect_load path `Corrupt;
  Sys.remove path;
  expect_load path `Missing;
  (match Checkpoint.save ~path [ 1; 2; 3 ] with
  | Ok () -> ()
  | Error m -> Alcotest.failf "save: %s" m);
  let good = read_file path in
  (* truncation: drop the last byte *)
  write_file path (String.sub good 0 (String.length good - 1));
  expect_load path `Corrupt;
  (* bit rot: flip one payload byte (keeps the length) *)
  let rotten = Bytes.of_string good in
  let last = Bytes.length rotten - 1 in
  Bytes.set rotten last (Char.chr (Char.code (Bytes.get rotten last) lxor 1));
  write_file path (Bytes.to_string rotten);
  expect_load path `Corrupt;
  (* version skew: a checkpoint from a "different build" (forged digest)
     must be refused before Marshal ever sees the payload *)
  let nl = String.index good '\n' in
  let header = String.sub good 0 nl in
  (match String.split_on_char ' ' header with
  | [ magic; version; _digest; md5; len ] ->
    let forged =
      String.concat " "
        [ magic; version; String.make 32 '0'; md5; len ]
      ^ String.sub good nl (String.length good - nl)
    in
    write_file path forged;
    expect_load path `Skew
  | _ -> Alcotest.fail "unexpected header shape");
  (* garbage *)
  write_file path "garbage without any newline";
  expect_load path `Corrupt

(* --- Serve_engine ------------------------------------------------------- *)

(* ring:4 where router 0 also announces two more prefixes under the same
   policy: six classes, four behaviours *)
let ring4_shared () =
  let net = Synthesis.ring_bgp ~n:4 in
  let more = [ Synthesis.prefix_of_index 8; Synthesis.prefix_of_index 9 ] in
  {
    net with
    Device.routers =
      Array.mapi
        (fun v (r : Device.router) ->
          if v = 0 then { r with Device.originated = r.Device.originated @ more }
          else r)
        net.Device.routers;
  }

let resolve = function
  | "ring:4" -> Synthesis.ring_bgp ~n:4
  | "ring:4+shared" -> ring4_shared ()
  | "ring:6" -> Synthesis.ring_bgp ~n:6
  | "mesh:4" -> Synthesis.mesh_bgp ~n:4
  | s -> failwith ("unknown network " ^ s)

let engine () = Serve_engine.create ~resolve ()

let handle eng line = fst (Serve_engine.handle_line eng ~queue_depth:0 line)

let response_ok resp =
  match Json.parse resp with
  | Ok r -> (
    match Json.member "ok" r with
    | Some (Json.Bool b) -> b
    | _ -> Alcotest.failf "response without ok: %s" resp)
  | Error m -> Alcotest.failf "unparsable response %S: %s" resp m

let error_class resp =
  match Json.parse resp with
  | Ok r -> (
    match Option.bind (Json.member "error" r) (Json.member "class") with
    | Some (Json.String c) -> c
    | _ -> Alcotest.failf "response without error class: %s" resp)
  | Error m -> Alcotest.failf "unparsable response %S: %s" resp m

let test_engine_budget_isolation () =
  let eng = engine () in
  (* a starved request gets a typed budget-exceeded response ... *)
  let r1 =
    handle eng "{\"op\":\"compress\",\"network\":\"mesh:4\",\"budget_ticks\":1}"
  in
  Alcotest.(check bool) "starved request fails" false (response_ok r1);
  Alcotest.(check string) "typed class" "budget-exceeded" (error_class r1);
  (* ... and the poisoned state was NOT cached ... *)
  Alcotest.(check int) "degraded state not cached" 0
    (Serve_engine.networks eng);
  (* ... while the engine keeps answering everyone else *)
  let r2 = handle eng "{\"op\":\"compress\",\"network\":\"ring:4\"}" in
  Alcotest.(check bool) "next request unaffected" true (response_ok r2)

let test_engine_typed_errors () =
  let eng = engine () in
  List.iter
    (fun (line, cls) ->
      let r = handle eng line in
      Alcotest.(check bool) (line ^ " fails") false (response_ok r);
      Alcotest.(check string) line cls (error_class r))
    [
      ("{\"op\":\"compress\"}", "bad-request");
      ("{\"op\":\"compress\",\"network\":\"nope:1\"}", "bad-request");
      ("{\"op\":\"compress\",\"network\":7}", "bad-request");
      ("{\"op\":\"frobnicate\"}", "bad-request");
      ("}{ not json", "bad-request");
      ("{\"op\":\"diff\",\"network\":\"ring:4\"}", "bad-request");
      (* a key the op does not read: a misspelt budget must not buy an
         unbudgeted answer, nor may a budget ride on an op without one *)
      ("{\"op\":\"compress\",\"network\":\"ring:4\",\"budget_tick\":1}",
       "bad-request");
      ("{\"op\":\"lint\",\"network\":\"ring:4\",\"budget_ms\":5}",
       "bad-request");
      ("{\"op\":\"health\",\"network\":\"ring:4\"}", "bad-request");
    ];
  (* nine garbage requests later, the engine still works *)
  Alcotest.(check bool) "still alive" true
    (response_ok (handle eng "{\"op\":\"health\"}"))

let test_engine_shutdown_signal () =
  let eng = engine () in
  let resp, k = Serve_engine.handle_line eng ~queue_depth:0 "{\"op\":\"shutdown\"}" in
  Alcotest.(check bool) "shutdown ok" true (response_ok resp);
  Alcotest.(check bool) "signals shutdown" true
    (match k with `Shutdown -> true | `Continue -> false)

(* The crash-safety headline: warm state restored from a checkpoint
   answers bit-identically to the cold computation that produced it. *)
let test_engine_checkpoint_restore () =
  with_tmp @@ fun path ->
  let compress_line = "{\"op\":\"compress\",\"network\":\"ring:4\"}" in
  let cold_eng = engine () in
  let cold = handle cold_eng compress_line in
  Alcotest.(check bool) "cold ok" true (response_ok cold);
  (match Serve_engine.checkpoint cold_eng ~path with
  | Ok n -> Alcotest.(check int) "one network saved" 1 n
  | Error m -> Alcotest.failf "checkpoint: %s" m);
  let warm_eng = engine () in
  (match Serve_engine.restore warm_eng ~path with
  | `Restored n -> Alcotest.(check int) "one network restored" 1 n
  | `Version_skew m | `Corrupt m -> Alcotest.failf "restore went cold: %s" m
  | `Missing -> Alcotest.fail "restore found nothing");
  Alcotest.(check int) "registry warm before any request" 1
    (Serve_engine.networks warm_eng);
  let warm = handle warm_eng compress_line in
  Alcotest.(check string) "warm == cold, byte-identical" cold warm;
  (* the restored state must also keep *working* — recompress through it *)
  let diff =
    handle warm_eng "{\"op\":\"diff\",\"network\":\"ring:4\",\"to\":\"ring:6\"}"
  in
  Alcotest.(check bool) "restored state recompresses" true (response_ok diff)

let test_engine_corrupt_checkpoint_cold () =
  with_tmp @@ fun path ->
  write_file path "definitely not a checkpoint";
  let eng = engine () in
  (match Serve_engine.restore eng ~path with
  | `Corrupt _ -> ()
  | `Version_skew _ -> Alcotest.fail "garbage is corrupt, not version skew"
  | `Restored _ -> Alcotest.fail "restored garbage"
  | `Missing -> Alcotest.fail "file exists");
  (* cold rebuild, not a crash: the engine serves anyway *)
  Alcotest.(check bool) "serves cold" true
    (response_ok (handle eng "{\"op\":\"compress\",\"network\":\"ring:4\"}"))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.equal (String.sub haystack i nn) needle || go (i + 1))
  in
  go 0

(* A parse error gives the file's line numbers, never its text: the
   server must not echo a file that a request points it at. *)
let test_engine_parse_error_quotes_nothing () =
  with_tmp @@ fun path ->
  let marker = "marker-7f3a9c" in
  write_file path ("hostname r1\n" ^ marker ^ " bogus\n");
  let eng = Serve_engine.create () in
  let r =
    handle eng
      (Printf.sprintf "{\"op\":\"lint\",\"network\":\"file:%s\"}" path)
  in
  Alcotest.(check string) "typed class" "parse-error" (error_class r);
  Alcotest.(check bool) "no byte of the file" false (contains r marker);
  Alcotest.(check bool) "the line numbers" true (contains r "lines 1, 2")

(* The registry holds compressed networks only, under one LRU bound;
   [modular] is not an op, so it neither answers nor touches the
   registry. *)
let test_engine_lru_registry () =
  let eng =
    Serve_engine.create ~resolve ~max_networks:1 ()
  in
  ignore (handle eng "{\"op\":\"load\",\"network\":\"ring:4\"}");
  Alcotest.(check int) "one network" 1 (Serve_engine.networks eng);
  ignore (handle eng "{\"op\":\"load\",\"network\":\"ring:6\"}");
  Alcotest.(check int) "still one network" 1 (Serve_engine.networks eng);
  let r = handle eng "{\"op\":\"modular\",\"network\":\"ring:6\"}" in
  Alcotest.(check bool) "modular fails" false (response_ok r);
  Alcotest.(check string) "typed class" "bad-request" (error_class r);
  Alcotest.(check bool) "unknown op" true (contains r "unknown op");
  Alcotest.(check int) "registry unchanged" 1 (Serve_engine.networks eng)

(* The three cold-start causes are distinguishable: a checkpoint written
   by a different build must read as version skew (not generic
   corruption), and the status must reach the stats response. *)
let test_engine_version_skew_distinct () =
  with_tmp @@ fun path ->
  let payload = "x" in
  write_file path
    (Printf.sprintf "bonsai-checkpoint 1 %s %s %d\n%s" (String.make 32 '0')
       (Digest.to_hex (Digest.string payload))
       (String.length payload) payload);
  let eng = engine () in
  (match Serve_engine.restore eng ~path with
  | `Version_skew _ -> ()
  | `Restored _ -> Alcotest.fail "restored a foreign blob"
  | `Missing -> Alcotest.fail "file exists"
  | `Corrupt m -> Alcotest.failf "wrong-build digest is skew, got corrupt: %s" m);
  Alcotest.(check bool) "stats surfaces version-skew" true
    (contains (handle eng "{\"op\":\"stats\"}") "\"checkpoint\":\"version-skew\"");
  let eng' = engine () in
  (match Serve_engine.restore eng' ~path:(path ^ ".nope") with
  | `Missing -> ()
  | _ -> Alcotest.fail "absent file is Missing");
  Alcotest.(check bool) "stats surfaces missing" true
    (contains (handle eng' "{\"op\":\"stats\"}") "\"checkpoint\":\"missing\"")

(* The self-audit catches a silently corrupted warm abstraction: refute,
   quarantine, incident, and a rebuilt answer byte-identical to cold. *)
let test_engine_self_audit_quarantines () =
  let eng = engine () in
  let line = "{\"op\":\"compress\",\"network\":\"ring:4\"}" in
  let cold = handle eng line in
  Alcotest.(check bool) "cold ok" true (response_ok cold);
  (* the corruption hook is gated on the test environment *)
  Alcotest.(check bool) "test-corrupt gated off by default" true
    (contains
       (handle eng "{\"op\":\"test-corrupt\",\"network\":\"ring:4\"}")
       "unknown op");
  (match Serve_engine.audit_step eng with
  | Serve_engine.Audit_clean _ -> ()
  | _ -> Alcotest.fail "healthy warm state must audit clean");
  Unix.putenv "BONSAI_TEST_HOOKS" "1";
  let corrupted =
    handle eng "{\"op\":\"test-corrupt\",\"network\":\"ring:4\"}"
  in
  Unix.putenv "BONSAI_TEST_HOOKS" "0";
  Alcotest.(check bool) "corrupted" true (response_ok corrupted);
  (match Serve_engine.audit_step eng with
  | Serve_engine.Audit_quarantined (spec, _) ->
    Alcotest.(check string) "quarantined the corrupted network" "ring:4" spec
  | _ -> Alcotest.fail "audit must refute the corrupted state");
  (match Serve_engine.drain_incidents eng with
  | [ (spec, _) ] -> Alcotest.(check string) "one incident" "ring:4" spec
  | l -> Alcotest.failf "expected 1 incident, got %d" (List.length l));
  Alcotest.(check int) "entry evicted" 0 (Serve_engine.networks eng);
  Alcotest.(check string) "rebuilt answer == cold answer" cold
    (handle eng line);
  Alcotest.(check bool) "incident counted in stats" true
    (contains (handle eng "{\"op\":\"stats\"}") "\"incidents\":1")

(* --- Backoff (the bonsai-watch retry policy) ---------------------------- *)

let test_backoff_cap_and_reset () =
  let bo = Backoff.create ~base_ms:500 () in
  Alcotest.(check int) "healthy -> base" 500 (Backoff.sleep_ms bo);
  Alcotest.(check int) "first failure doubles" 1000 (Backoff.note_failure bo);
  for _ = 1 to 100 do
    ignore (Backoff.note_failure bo)
  done;
  Alcotest.(check int) "capped at 30s" 30_000 (Backoff.sleep_ms bo);
  Backoff.reset bo;
  Alcotest.(check int) "reset -> base" 500 (Backoff.sleep_ms bo)

let test_backoff_never_busy_loops () =
  (* a persistently failing source sleeps at least base_ms for ANY
     streak length — including ones where an unclamped 1-lsl-n shift
     would overflow — so the watcher can never spin *)
  let bo = Backoff.create ~base_ms:7 ~cap_ms:10_000 () in
  for i = 1 to 200 do
    let ms = Backoff.note_failure bo in
    if ms < 7 then Alcotest.failf "failure %d slept %dms < base" i ms;
    if ms > 10_000 then Alcotest.failf "failure %d slept %dms > cap" i ms
  done;
  Alcotest.(check int) "failures counted" 200 (Backoff.failures bo);
  Alcotest.(check int) "still exactly the cap" 10_000 (Backoff.sleep_ms bo)

let test_backoff_retry_semantics () =
  (* mid-write: the re-read sees the completed write *)
  let reads = ref 0 and slept = ref 0 in
  let parse s = if String.equal s "good" then Ok s else Error ("bad " ^ s) in
  let read () =
    incr reads;
    Ok "good"
  in
  let text, out =
    Backoff.parse_with_retry ~read ~parse
      ~sleep:(fun () -> incr slept)
      "half-writ"
  in
  Alcotest.(check string) "settled on the re-read" "good" text;
  (match out with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "retry should have parsed: %s" m);
  Alcotest.(check int) "slept once" 1 !slept;
  Alcotest.(check int) "re-read once" 1 !reads;
  (* a clean first parse never re-reads *)
  let reads2 = ref 0 in
  let _, out2 =
    Backoff.parse_with_retry
      ~read:(fun () ->
        incr reads2;
        Ok "ignored")
      ~parse
      ~sleep:(fun () -> ())
      "good"
  in
  (match out2 with Ok _ -> () | Error _ -> Alcotest.fail "clean parse");
  Alcotest.(check int) "no re-read on success" 0 !reads2

let test_backoff_retry_unchanged_keeps_first_error () =
  (* identical bytes on re-read: keep the FIRST error, don't burn a
     second parse on the same input *)
  let parse_calls = ref 0 in
  let parse s =
    incr parse_calls;
    Error (Printf.sprintf "err%d %s" !parse_calls s)
  in
  let text, out =
    Backoff.parse_with_retry
      ~read:(fun () -> Ok "same")
      ~parse
      ~sleep:(fun () -> ())
      "same"
  in
  Alcotest.(check string) "text unchanged" "same" text;
  (match out with
  | Error m -> Alcotest.(check string) "first error kept" "err1 same" m
  | Ok _ -> Alcotest.fail "should fail");
  Alcotest.(check int) "parsed once only" 1 !parse_calls;
  (* a failed re-read also keeps the first error *)
  let _, out2 =
    Backoff.parse_with_retry
      ~read:(fun () -> Error "gone")
      ~parse:(fun _ -> Error "e1")
      ~sleep:(fun () -> ())
      "t"
  in
  match out2 with
  | Error "e1" -> ()
  | _ -> Alcotest.fail "first error kept when the re-read fails"

(* --- fuzz: arbitrary bytes only ever produce typed responses ----------- *)

(* Random bytes, biased toward JSON-looking shards so the parser gets
   past the first token reasonably often. *)
let arb_line =
  QCheck.make
    QCheck.Gen.(
      frequency
        [
          (2, string_size ~gen:printable (int_range 0 200));
          (1, string_size ~gen:char (int_range 0 200));
          ( 2,
            string_size
              ~gen:(oneofl [ '{'; '}'; '"'; ':'; ','; 'a'; '0'; ' ' ])
              (int_range 0 60) );
          ( 2,
            map2
              (fun op k ->
                Printf.sprintf "{\"op\":%S,\"network\":\"ring:4\",\"k\":%d}"
                  op k)
              (string_size ~gen:printable (int_range 0 10))
              (int_range (-2) 20) );
        ])

let prop_total =
  QCheck.Test.make ~count:fuzz_count ~name:"handle_line is total"
    arb_line
    (fun line ->
      let eng = engine () in
      match Serve_engine.handle_line eng ~queue_depth:0 line with
      | resp, (`Continue | `Shutdown) -> (
        match Json.parse resp with
        | Ok r -> (
          match Json.member "ok" r with
          | Some (Json.Bool _) -> true
          | _ -> QCheck.Test.fail_reportf "no ok field: %s" resp)
        | Error m ->
          QCheck.Test.fail_reportf "unparsable response %S: %s" resp m)
      | exception e ->
        QCheck.Test.fail_reportf "handle_line raised %s on %S"
          (Printexc.to_string e) line)

let prop_json_roundtrip =
  let rec arb_json depth =
    let open QCheck.Gen in
    let str = string_size ~gen:printable (int_range 0 12) in
    let raw = string_size ~gen:char (int_range 0 12) in
    if depth = 0 then
      oneof
        [
          return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun i -> Json.Int i) (int_range (-100000) 100000);
          map (fun s -> Json.String s) str;
        ]
    else
      oneof
        [
          map
            (fun l -> Json.List l)
            (list_size (int_range 0 4) (arb_json (depth - 1)));
          map
            (fun kvs -> Json.Obj kvs)
            (list_size (int_range 0 4) (pair str (arb_json (depth - 1))));
          map (fun s -> Json.String s) raw;
        ]
  in
  QCheck.Test.make ~count:fuzz_count ~name:"to_string/parse roundtrip"
    (QCheck.make (arb_json 3))
    (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok v' -> Json.equal v v'
      | Error m ->
        QCheck.Test.fail_reportf "reparse of %s failed: %s" (Json.to_string v)
          m)

(* Floats print as the shortest decimal that reads back as the same
   [Float] — integral values included, which must not come back as [Int]. *)
let prop_json_float_roundtrip =
  let open QCheck.Gen in
  let finite = map (fun f -> if Float.is_finite f then f else 0.0) float in
  QCheck.Test.make ~count:(10 * fuzz_count)
    ~name:"float to_string/parse roundtrip"
    (QCheck.make ~print:string_of_float
       (oneof
          [
            finite;
            map Float.round finite;
            map float_of_int int;
            map (fun i -> float_of_int i /. 100.) (int_range (-100000) 100000);
          ]))
    (fun f ->
      match Json.parse (Json.to_string (Json.Float f)) with
      | Ok (Json.Float f') -> Float.equal f f'
      | Ok v ->
        QCheck.Test.fail_reportf "%h read back as %s" f (Json.to_string v)
      | Error m -> QCheck.Test.fail_reportf "%h: %s" f m)

(* --- front ends: CLI --format json and serve answer alike --------------- *)

(* Paths relative to this executable, so the tests find the CLI and the
   fixture corpus under both `dune runtest` and `dune exec`. *)
let build_path rel = Filename.concat (Filename.dirname Sys.executable_name) rel

let run_cli args =
  let ic =
    Unix.open_process_in
      (Filename.quote_command
         (build_path "../bin/bonsai_cli.exe")
         ~stderr:Filename.null args)
  in
  let out = In_channel.input_all ic in
  ignore (Unix.close_process_in ic : Unix.process_status);
  out

let parse_or_fail what text =
  match Json.parse text with
  | Ok j -> j
  | Error m -> Alcotest.failf "%s: invalid JSON (%s): %S" what m text

(* The first key an object repeats, at any depth: a last-wins reader
   (jq, Python's json) would keep only the last value. *)
let rec repeated_key = function
  | Json.Obj fields -> (
    let rec dup = function
      | [] -> None
      | (k, _) :: rest -> if List.mem_assoc k rest then Some k else dup rest
    in
    match dup fields with
    | Some k -> Some k
    | None -> List.find_map (fun (_, v) -> repeated_key v) fields)
  | Json.List xs -> List.find_map repeated_key xs
  | _ -> None

(* No response to the serve goldens' request files repeats a key. They
   run from test/serve, where their relative paths resolve. *)
let test_responses_unique_keys () =
  List.iter
    (fun file ->
      let ic =
        Unix.open_process_in
          (Printf.sprintf "cd %s && ../../bin/bonsai_cli.exe serve --stdio < %s 2>%s"
             (Filename.quote (build_path "serve"))
             file Filename.null)
      in
      let out = In_channel.input_all ic in
      ignore (Unix.close_process_in ic : Unix.process_status);
      let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
      if lines = [] then Alcotest.failf "%s: no responses" file;
      List.iter
        (fun line ->
          match repeated_key (parse_or_fail file line) with
          | Some k -> Alcotest.failf "%s: key %S repeats in %s" file k line
          | None -> ())
        lines)
    [ "basic.ndjson"; "parity.ndjson" ]

(* Every op the engine lists is answered (never "unknown op"), and the
   CLI's serve and request help name each one. *)
let test_op_names_in_help () =
  let eng = engine () in
  List.iter
    (fun op ->
      let resp = handle eng (Printf.sprintf "{\"id\":1,\"op\":%S}" op) in
      if contains resp "unknown op" then Alcotest.failf "%s: %s" op resp)
    Serve_engine.op_names;
  let words text =
    String.map
      (fun c -> if String.contains "(),|.\n" c then ' ' else c)
      text
    |> String.split_on_char ' '
  in
  List.iter
    (fun cmd ->
      let help = words (run_cli [ cmd; "--help=plain" ]) in
      List.iter
        (fun op ->
          if not (List.mem op help) then
            Alcotest.failf "bonsai %s --help omits %s" cmd op)
        Serve_engine.op_names)
    [ "serve"; "request" ]

(* A router name holding a control byte must come out escaped. *)
let test_cli_json_control_byte () =
  let path = Filename.temp_file "bonsai_ctrl" ".conf" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        "topology\n  node a\001x\n  node b\n  link a\001x b\n\n\
         router a\001x\n  bgp neighbor b\n  originate 10.0.0.0/24\n\n\
         router b\n  bgp neighbor a\001x\n");
  let out = run_cli [ "compress"; "file:" ^ path; "--format"; "json" ] in
  Sys.remove path;
  let j = parse_or_fail "compress --format json" out in
  let members =
    match Json.member "classes" j with
    | Some (Json.List [ row ]) -> (
      match Json.member "roles" row with
      | Some (Json.List roles) ->
        List.concat_map
          (fun r ->
            match Json.member "members" r with
            | Some (Json.List ms) -> List.filter_map Json.to_string_opt ms
            | _ -> [])
          roles
      | _ -> [])
    | _ -> []
  in
  Alcotest.(check bool) "router name read back" true (List.mem "a\001x" members)

(* The N of the first "clause N" or "rule N" in a lint message. *)
let clause_of_message msg =
  let rec go = function
    | ("clause" | "rule") :: n :: rest -> (
      match int_of_string_opt n with Some i -> Some i | None -> go rest)
    | _ :: rest -> go rest
    | [] -> None
  in
  go (String.split_on_char ' ' msg)

(* Both front ends report the 1-based clause their own messages name. *)
let check_clauses what findings =
  let with_clause = ref 0 in
  List.iter
    (fun f ->
      let msg =
        Option.value ~default:""
          (Option.bind (Json.member "message" f) Json.to_string_opt)
      in
      let clause = Option.bind (Json.member "clause" f) Json.to_int_opt in
      if Option.is_some clause then incr with_clause;
      Alcotest.(check (option int)) (what ^ ": " ^ msg) (clause_of_message msg)
        clause)
    findings;
  Alcotest.(check bool) (what ^ " has clause findings") true (!with_clause > 0)

let test_lint_clause_agreement () =
  let eng =
    Serve_engine.create
      ~resolve:(fun spec ->
        match Config_text.load (String.sub spec 5 (String.length spec - 5)) with
        | Ok net -> net
        | Error m -> failwith m)
      ()
  in
  List.iter
    (fun fixture ->
      let spec = "file:" ^ build_path ("../examples/configs/" ^ fixture) in
      let cli = run_cli [ "lint"; spec; "--format"; "json" ] in
      (match parse_or_fail ("lint " ^ fixture) cli with
      | Json.List findings -> check_clauses ("cli " ^ fixture) findings
      | _ -> Alcotest.failf "lint %s: not a JSON list" fixture);
      let req =
        Json.to_string
          (Json.Obj
             [ ("op", Json.String "lint"); ("network", Json.String spec) ])
      in
      let resp = parse_or_fail "serve lint" (handle eng req) in
      match Json.member "findings" resp with
      | Some (Json.List findings) -> check_clauses ("serve " ^ fixture) findings
      | _ -> Alcotest.failf "serve lint %s: no findings list" fixture)
    [ "shadow.conf"; "acl.conf" ]

(* Serve lint on a file: network answers with the CLI's findings, source
   lines, route-map names and order included: the line table rides on
   the warm entry, follows a diff to another file, and survives a
   checkpoint restored into a fresh engine. *)
let test_lint_source_lines () =
  with_tmp @@ fun path ->
  let conf f = "file:" ^ build_path ("../examples/configs/" ^ f) in
  let spec = conf "shadow.conf" in
  let cli f =
    Json.to_string
      (parse_or_fail ("cli lint " ^ f)
         (run_cli [ "lint"; conf f; "--format"; "json" ]))
  in
  let request eng op fields =
    let line =
      Json.to_string
        (Json.Obj
           ([ ("op", Json.String op); ("network", Json.String spec) ] @ fields))
    in
    let resp = parse_or_fail op (handle eng line) in
    if not (response_ok (Json.to_string resp)) then
      Alcotest.failf "%s failed: %s" op (Json.to_string resp);
    resp
  in
  let lint eng =
    match Json.member "findings" (request eng "lint" []) with
    | Some f -> Json.to_string f
    | None -> Alcotest.fail "serve lint: no findings"
  in
  let eng = Serve_engine.create () in
  ignore (request eng "load" [] : Json.t);
  let shadow = cli "shadow.conf" in
  List.iter
    (fun field ->
      Alcotest.(check bool) ("cli reports " ^ field) true
        (Astring_contains.contains shadow field))
    [ "\"route_map\""; "\"line\"" ];
  Alcotest.(check string) "warm lint = cli" shadow (lint eng);
  ignore (request eng "diff" [ ("to", Json.String (conf "comms.conf")) ] : Json.t);
  let comms = cli "comms.conf" in
  Alcotest.(check bool) "diff target has lines" true
    (Astring_contains.contains comms "\"line\"");
  Alcotest.(check string) "lint after diff = cli on the new file" comms
    (lint eng);
  (match Serve_engine.checkpoint eng ~path with
  | Ok n -> Alcotest.(check int) "one network saved" 1 n
  | Error m -> Alcotest.failf "checkpoint: %s" m);
  let eng' = Serve_engine.create () in
  (match Serve_engine.restore eng' ~path with
  | `Restored _ -> ()
  | `Version_skew m | `Corrupt m -> Alcotest.failf "restore went cold: %s" m
  | `Missing -> Alcotest.fail "restore found nothing");
  Alcotest.(check string) "lint after restore = cli" comms (lint eng')

let member name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "no %s in %s" name (Json.to_string j)

(* A degraded diff answers budget-exceeded and is never kept: the warm
   entry stays at its pre-diff network. *)
let test_engine_starved_diff_keeps_network () =
  let eng = engine () in
  let compress = "{\"op\":\"compress\",\"network\":\"ring:4\"}" in
  let before = handle eng compress in
  Alcotest.(check bool) "warm" true (response_ok before);
  let starved =
    handle eng
      "{\"op\":\"diff\",\"network\":\"ring:4\",\"to\":\"ring:6\",\
       \"budget_ticks\":1}"
  in
  Alcotest.(check string) "starved diff typed" "budget-exceeded"
    (error_class starved);
  let after = handle eng compress in
  Alcotest.(check bool) "compress ok" true (response_ok after);
  Alcotest.(check bool) "undegraded" true
    (Json.equal (Json.Bool false)
       (member "degraded" (parse_or_fail "compress" after)));
  Alcotest.(check string) "byte-identical to before" before after;
  Alcotest.(check int) "one warm entry" 1 (Serve_engine.networks eng)

(* stats counts each warm network's classes and the distinct behaviours
   (class keys) among them *)
let test_engine_stats_behaviours () =
  let eng = engine () in
  ignore
    (handle eng "{\"op\":\"compress\",\"network\":\"ring:4+shared\"}"
      : string);
  let stats = parse_or_fail "stats" (handle eng "{\"op\":\"stats\"}") in
  match member "networks" stats with
  | Json.List [ row ] ->
    let check what want =
      Alcotest.(check bool) what true (Json.equal (Json.Int want) (member what row))
    in
    check "ecs" 6;
    check "behaviours" 4
  | j -> Alcotest.failf "one network row expected: %s" (Json.to_string j)

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects" `Quick test_json_rejects;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "parse" `Quick test_protocol_parse;
          Alcotest.test_case "exit codes" `Quick test_protocol_exit_codes;
        ] );
      ( "scheduler",
        [ Alcotest.test_case "fifo and shed" `Quick test_scheduler_fifo_and_shed ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "fsync before/after rename" `Quick
            test_checkpoint_fsync;
          Alcotest.test_case "corruption guards" `Quick test_checkpoint_guards;
        ] );
      ( "engine",
        [
          Alcotest.test_case "budget isolation" `Quick
            test_engine_budget_isolation;
          Alcotest.test_case "typed errors" `Quick test_engine_typed_errors;
          Alcotest.test_case "parse error quotes nothing" `Quick
            test_engine_parse_error_quotes_nothing;
          Alcotest.test_case "shutdown" `Quick test_engine_shutdown_signal;
          Alcotest.test_case "checkpoint restore == cold" `Quick
            test_engine_checkpoint_restore;
          Alcotest.test_case "corrupt checkpoint goes cold" `Quick
            test_engine_corrupt_checkpoint_cold;
          Alcotest.test_case "registry lru" `Quick test_engine_lru_registry;
          Alcotest.test_case "version skew distinct" `Quick
            test_engine_version_skew_distinct;
          Alcotest.test_case "starved diff keeps the pre-diff network" `Quick
            test_engine_starved_diff_keeps_network;
          Alcotest.test_case "self-audit quarantines" `Quick
            test_engine_self_audit_quarantines;
          Alcotest.test_case "stats counts behaviours" `Quick
            test_engine_stats_behaviours;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "cap and reset" `Quick test_backoff_cap_and_reset;
          Alcotest.test_case "never busy-loops" `Quick
            test_backoff_never_busy_loops;
          Alcotest.test_case "mid-write retry" `Quick
            test_backoff_retry_semantics;
          Alcotest.test_case "unchanged keeps first error" `Quick
            test_backoff_retry_unchanged_keeps_first_error;
        ] );
      ( "front-ends",
        [
          Alcotest.test_case "cli json escapes control bytes" `Quick
            test_cli_json_control_byte;
          Alcotest.test_case "lint clause agrees" `Quick
            test_lint_clause_agreement;
          Alcotest.test_case "lint source lines" `Quick test_lint_source_lines;
          Alcotest.test_case "op list in help" `Quick test_op_names_in_help;
          Alcotest.test_case "no repeated keys" `Quick
            test_responses_unique_keys;
        ] );
      qsuite "fuzz"
        [ prop_total; prop_json_roundtrip; prop_json_float_roundtrip ];
    ]
