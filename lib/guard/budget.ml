type info = {
  phase : string;
  ticks : int;
  elapsed_s : float;
  note : string option;
}

exception Exhausted of info

type t = {
  mutable ticks : int;
  max_ticks : int;
  start : float;
  deadline : float; (* absolute; infinity when unbounded *)
  mutable cancelled : bool;
}

(* How often the (comparatively expensive) clock is consulted from [tick]:
   every [clock_stride] ticks. Tick-count and cancellation checks are exact
   on every tick. *)
let clock_stride_mask = 0xF

(* The centralized never-backwards clock: a backwards NTP step must not
   produce negative elapsed times or a deadline that can never fire. *)
let now = Timing.monotonic_now

let infinite =
  { ticks = 0; max_ticks = max_int; start = 0.0; deadline = infinity;
    cancelled = false }

let create ?deadline_s ?max_ticks () =
  let start = now () in
  {
    ticks = 0;
    max_ticks = (match max_ticks with Some t -> t | None -> max_int);
    start;
    deadline =
      (match deadline_s with Some s -> start +. s | None -> infinity);
    cancelled = false;
  }

let is_infinite b = b == infinite
let cancel b = if not (is_infinite b) then b.cancelled <- true

let cancelled b = b.cancelled
let ticks b = b.ticks
(* [max 0.0]: a restored-from-checkpoint or hand-built budget may carry a
   start in the future of the clamped clock; elapsed degrades to zero,
   never negative. *)
let elapsed_s b = if is_infinite b then 0.0 else max 0.0 (now () -. b.start)

let info b ~phase ?note () =
  { phase; ticks = b.ticks; elapsed_s = elapsed_s b; note }

let with_note i note = { i with note = Some note }

let fail b phase = raise (Exhausted (info b ~phase ()))

(* >=, not >: a zero allowance is expired from the moment it is created,
   even if the clock has not visibly advanced since. *)
let over_deadline b = b.deadline < infinity && now () >= b.deadline

let check b ~phase =
  if not (is_infinite b) then
    if cancelled b || b.ticks > b.max_ticks || over_deadline b then
      fail b phase

let tick b ~phase =
  if not (is_infinite b) then begin
    b.ticks <- b.ticks + 1;
    if
      b.cancelled
      || b.ticks > b.max_ticks
      || (b.ticks land clock_stride_mask = 0 && over_deadline b)
    then fail b phase
  end

let scoped ?deadline_s ?max_ticks ?cap_deadline_s ?cap_max_ticks () =
  let min_opt a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (min a b)
  in
  match
    (min_opt deadline_s cap_deadline_s, min_opt max_ticks cap_max_ticks)
  with
  | None, None -> infinite
  | deadline_s, max_ticks -> create ?deadline_s ?max_ticks ()

let exhausted b =
  (not (is_infinite b))
  && (cancelled b || b.ticks > b.max_ticks || over_deadline b)
