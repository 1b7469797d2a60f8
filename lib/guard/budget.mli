(** Resource budgets for the compression pipeline.

    Every long-running phase of Bonsai — BDD policy encoding, the SRP
    solver fixpoint, abstraction refinement, fault surveys — can run
    unboundedly long on adversarial inputs. A [Budget.t] bounds such a
    phase with three cooperating mechanisms:

    - a {e wall-clock deadline} (checked against a monotonic-enough clock
      every few ticks, so the per-tick cost stays one increment and one
      comparison);
    - a {e work-tick counter}: each unit of work (a BDD node expansion, a
      solver activation, a refinement iteration, a fault scenario) consumes
      one tick, against an optional maximum;
    - a {e cooperative cancellation token}: any thread may {!cancel} the
      budget and the working phase stops at its next tick.

    One budget is intended to be threaded through an entire pipeline run so
    the deadline covers parse → compile → compress → solve end to end.
    Exhaustion is signalled by the {!Exhausted} exception, which carries the
    phase that was executing, the ticks consumed and the elapsed wall-clock
    time; API boundaries ({!Bonsai_api}, the CLI) convert it into the typed
    [Bonsai_error.Budget_exceeded] error rather than letting it escape. *)

type info = {
  phase : string;  (** the pipeline phase whose tick hit the limit *)
  ticks : int;  (** work ticks consumed when the budget ran out *)
  elapsed_s : float;  (** wall-clock seconds since the budget was created *)
  note : string option;
      (** optional phase-specific progress, e.g. the partition size the
          refinement loop had reached *)
}

exception Exhausted of info

type t

val infinite : t
(** A budget that never runs out (the default everywhere). Shared; its
    tick counter is meaningless. *)

val create : ?deadline_s:float -> ?max_ticks:int -> unit -> t
(** [create ()] is a fresh budget. [deadline_s] is a wall-clock allowance
    in seconds, measured from this call; [max_ticks] bounds the number of
    work ticks. Omitted limits are unbounded (but the budget can still be
    {!cancel}led). *)

val scoped :
  ?deadline_s:float ->
  ?max_ticks:int ->
  ?cap_deadline_s:float ->
  ?cap_max_ticks:int ->
  unit ->
  t
(** Request-scoped budget for a resident engine: each limit is the
    minimum of the caller-requested value and the server-wide cap; an
    omitted request inherits the cap and an omitted cap leaves the
    request unclamped. With no limit from either side this is
    {!infinite}. *)

val is_infinite : t -> bool

val cancel : t -> unit
(** Cooperatively cancel: the next {!tick}/{!check} raises {!Exhausted}. *)

val cancelled : t -> bool
val ticks : t -> int
val elapsed_s : t -> float

val tick : t -> phase:string -> unit
(** Consume one work tick. Raises {!Exhausted} when the tick limit is
    reached, the budget was cancelled, or (checked every few ticks) the
    deadline has passed. The tick that crosses the limit is counted, so
    work that stops at the first {!Exhausted} ends within one tick of it. *)

val check : t -> phase:string -> unit
(** Like {!tick} but consumes nothing and always consults the clock; for
    coarse loops whose iterations are individually expensive (one fault
    scenario, one refinement pass). *)

val exhausted : t -> bool
(** Non-raising poll: has the budget run out (by any mechanism)? *)

val info : t -> phase:string -> ?note:string -> unit -> info
(** Snapshot the budget's consumption, for error reports. *)

val with_note : info -> string -> info
(** Replace the progress note (used to attach e.g. partition sizes). *)
