(* Statistics and the result line.

   The last line of standard output is one JSON object with exactly the
   keys [correct], [attempted], [failed] and [metrics]; everything printed
   before it is a human-readable report. Values keep every digit they
   were measured with. *)

let percentile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 0.5

(* Run [f] [n] times, each from a collected heap; the wall times and the
   last result. Set-up is timed this way in two batches, before and after
   the measured section, so its median does not hang on one moment of the
   machine's load. *)
let time_reps n f =
  let rec go i times last =
    if i = n then (times, Option.get last)
    else begin
      Gc.full_major ();
      let x, dt = Timing.time f in
      go (i + 1) (dt :: times) (Some x)
    end
  in
  go 0 [] None

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let share a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_metrics metrics =
  List.iter
    (fun x -> Printf.printf "  %-34s %18s %s\n" x.name (number x.value) x.unit_)
    metrics

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
             (number x.value) x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body
