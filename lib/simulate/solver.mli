(** Computing stable solutions of an SRP by simulating asynchronous message
    processing.

    The solver repeatedly activates nodes from a worklist; an activated
    node recomputes its best choice from its neighbors' current labels.
    When the worklist drains, the labeling is locally stable by
    construction. Which of the (possibly multiple, paper §3.1) solutions
    is found depends on the activation order and on how ties are broken,
    both of which can be seeded — this emulates the message-arrival timing
    that selects solutions in a real network (paper Figure 2).

    Divergent instances (e.g. BGP gadgets with no stable solution, or
    perturbed topologies — "Routing Regardless of Network Stability") run
    the step budget out; instead of failing opaquely the solver then runs a
    post-mortem: a deterministic sweep that either exposes the oscillation
    cycle (period and participating nodes), reaches a fixed point (the
    budget was simply too small), or gives up after a bounded number of
    rounds ("inconclusive"). [solve] never raises on divergence. *)

type stats = {
  steps : int;  (** node activations *)
  updates : int;  (** label changes *)
  transfers : int;
      (** transfer-function evaluations: [|succ u|] per activation of [u],
          plus exactly [Graph.n_edges] for the final stability sweep *)
}

type cycle = {
  period : int;  (** sweeps until the label vector repeats *)
  participants : int list;  (** nodes whose labels change within the cycle *)
}

type verdict =
  | Oscillation of cycle  (** a repeated label vector: a true routing
                              oscillation (no stable solution reachable
                              from this state) *)
  | Likely_convergent
      (** the diagnosis sweep reached a fixed point — the instance is
          stable and only [max_steps] was too small *)
  | Inconclusive of int
      (** no repeat within this many diagnosis rounds *)

type 'a diagnosis = {
  diag_sol : 'a Solution.t;
      (** the (unstable) labeling after the diagnosis sweeps *)
  diag_steps : int;  (** activations spent before the budget ran out *)
  diag_trace : (int * 'a option) list;
      (** tail of the update trace (node, new label), oldest first *)
  diag_verdict : verdict;
}

val solve :
  ?seed:int ->
  ?max_steps:int ->
  ?budget:Budget.t ->
  'a Srp.t ->
  ( 'a Solution.t * stats,
    [ `Diverged of 'a diagnosis | `Budget of Budget.info * 'a Solution.t ] )
  result
(** [solve srp] computes a stable solution. [seed] permutes the activation
    order and neighbor tie-breaking (default 0: deterministic first-best).
    [max_steps] bounds node activations (default [64 * n * (n + 1)]);
    internally it is one more {!Budget} (ticks only) whose exhaustion
    means "possibly divergent" and triggers a post-mortem of at most 64
    rounds. The caller-supplied [budget] (wall clock /
    ticks / cancellation, shared across a whole pipeline run) is consumed
    one tick per activation; its exhaustion instead returns [`Budget] with
    the exhaustion info and the partial (unstable) labeling reached so
    far. [solve] never raises.

    When the worklist drains, one sweep visits every node's successors
    once (in [Graph.succ] order) and decides stability exactly as
    {!Solution.is_stable} would, while collecting every node's
    {!Solution.fwd}: a returned solution carries its forwarding table, so
    reading it evaluates no transfer. *)

val sweep : 'a Srp.t -> 'a option array -> bool * (int * int) list array
(** The final sweep of {!solve} on any labeling: [Graph.n_edges]
    transfers decide {!Solution.is_stable} and give every node's
    {!Solution.fwd}. *)

val solve_exn :
  ?seed:int -> ?max_steps:int -> ?budget:Budget.t -> 'a Srp.t -> 'a Solution.t
(** @raise Bonsai_error.Error with [Divergence] on divergence (the
    diagnosis in the message), and [Budget.Exhausted] on budget
    exhaustion. *)

val pp_verdict : graph:Graph.t -> Format.formatter -> verdict -> unit
val pp_diagnosis : Format.formatter -> 'a diagnosis -> unit

val solutions_sample : ?tries:int -> 'a Srp.t -> 'a Solution.t list
(** Solve under several seeds and keep the distinct stable solutions found
    (labelings compared with {!Solution.equal_labels}, i.e. the SRP's own
    attribute equality). Used to explore multi-solution SRPs like the
    paper's Figure 2 gadget. *)

val enumerate_solutions : ?max_nodes:int -> 'a Srp.t -> 'a Solution.t list
(** All stable solutions of a {e small} SRP, by exhaustive search over the
    per-node route choices (each node selects one neighbor or no route;
    labels follow from the selection when it is acyclic; the stability
    check filters the rest). Exponential — guarded by [max_nodes]
    (default 12).
    @raise Invalid_argument if the network is larger than [max_nodes]. *)
