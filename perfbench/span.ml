(* In-memory span recorder for the traced run.

   A span is one timed call into a layer: its name, start and end, the
   span that was open when it began (its parent) and the class or request
   it served. Spans stay in memory and are written out once, when the run
   ends, so recording costs two clock reads and a list cons per call.
   Self time is a span's duration minus the part its children cover; the
   recorder is single-threaded, so children never overlap and their
   durations simply add up. *)

type span = {
  index : int;  (* creation order *)
  name : string;
  id : int;  (* class or request id the span served *)
  parent : int;  (* index of the enclosing span, -1 at top level *)
  start : float;
  stop : float;
  self : float;  (* duration minus the time its children cover *)
  alloc_words : float;  (* words allocated inside the span *)
}

type frame = { f_index : int; mutable f_children : float }

type t = {
  mutable spans : span list;  (* in finishing order, most recent first *)
  mutable next : int;
  mutable stack : frame list;  (* open spans, innermost first *)
}

let create () = { spans = []; next = 0; stack = [] }
let words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

let record t ~name ~id f =
  let frame = { f_index = t.next; f_children = 0.0 } in
  t.next <- t.next + 1;
  let parent = match t.stack with p :: _ -> p.f_index | [] -> -1 in
  t.stack <- frame :: t.stack;
  let w0 = words () in
  let start = Timing.now () in
  let finish () =
    let stop = Timing.now () in
    let alloc_words = words () -. w0 in
    t.stack <- List.tl t.stack;
    (match t.stack with
    | p :: _ -> p.f_children <- p.f_children +. (stop -. start)
    | [] -> ());
    t.spans <-
      {
        index = frame.f_index;
        name;
        id;
        parent;
        start;
        stop;
        self = stop -. start -. frame.f_children;
        alloc_words;
      }
      :: t.spans
  in
  Fun.protect ~finally:finish f

let duration s = s.stop -. s.start

let sum t name f =
  List.fold_left
    (fun acc s -> if String.equal s.name name then acc +. f s else acc)
    0.0 t.spans

(* Self time of every span called [name], in seconds. *)
let time t name = sum t name (fun s -> s.self)

(* Words allocated inside every span called [name], in millions. *)
let alloc_mw t name = sum t name (fun s -> s.alloc_words) /. 1e6

(* Chrome trace-event JSON (chrome://tracing or Perfetto load it). *)
let write_chrome t path =
  let spans = List.sort (fun a b -> Int.compare a.index b.index) t.spans in
  let t0 = match spans with s :: _ -> s.start | [] -> 0.0 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\
         \"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"id\":%d,\
         \"self_us\":%.3f,\"alloc_words\":%.0f}}\n"
        (if i = 0 then "" else ",")
        s.name
        ((s.start -. t0) *. 1e6)
        (duration s *. 1e6)
        s.index s.parent s.id (s.self *. 1e6) s.alloc_words)
    spans;
  output_string oc "]}\n";
  close_out oc
