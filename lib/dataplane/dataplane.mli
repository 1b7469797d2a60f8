(** The data plane: per-router forwarding tables and packet tracing.

    Batfish "first simulates the control plane to produce the data plane"
    (paper §8) and then answers packet-level queries on it. This module is
    that step, and the one place that turns a destination class into
    forwarding verdicts: it solves the class's SRP and assembles, for each
    router, a longest-prefix-match FIB entry with ECMP next hops — with
    each interface's outbound ACL folded in, so the table is what the
    device would actually forward on ({!compile_ec}). The abstract side
    gets the same fold through representative edges
    ({!compile_abstract}). Packets are traced hop by hop
    ({!Forwarding.walk}); {!Forwarding.outcomes} over {!class_lookup}
    gives the linear-time verdict that [Reachability] (verify) and {!Dp_bisim} answer from.

    {!of_network} accepts any configured network, so the emitted abstract
    configurations of {!Abstract_config} work directly. *)

type entry = {
  e_prefix : Prefix.t;  (** the destination class the entry matches *)
  e_next_hops : int list;  (** ECMP next hops the ACLs permit *)
  e_acl_dropped : int list;
      (** solution next hops removed because the router's outbound ACL on
          that interface denies the destination; [e_next_hops = []] with
          a non-empty [e_acl_dropped] is an ACL-induced blackhole *)
}

type class_fib = {
  cf_prefix : Prefix.t;
  cf_origin : int;  (** the class's (single) destination router *)
  cf_entries : (int * entry) list;  (** router -> entry, sorted by router *)
}
(** The forwarding state one destination class contributes: at most one
    FIB entry per router. *)

type t

val detect_protocol : Device.network -> [ `Bgp | `Multi ]
(** {!Compile.model} as a tag, for callers that name the model. *)

val compile_ec :
  ?budget:Budget.t ->
  'a Compile.model ->
  Device.network ->
  Ecs.ec ->
  [ `Compiled of class_fib | `Anycast | `Unsolved ]
(** Solve one destination class's SRP under the model (normally the
    network's own, {!Compile.model}) and fold the ACLs into its
    forwarding entries. [`Anycast] for multi-origin classes (no FIB),
    [`Unsolved] when the control plane diverges. Consumes one budget tick
    per call and raises [Budget.Exhausted] (for the caller to convert)
    when the allowance runs out mid-solve.

    Classes with one {!Compile.class_key} solve the same SRP and fold the
    same ACL verdicts, so the result is kept per key and model
    ({!Compile.keep}: only for a key more than one class keyed so far
    has) and re-stamped with each later class's prefix, unsolved. *)

val class_fib : Device.network -> Ecs.ec -> 'a Solution.t -> class_fib
(** The class FIB of a solved class: each router's {!Solution.fwd} with
    the outbound ACLs folded in. It evaluates no transfer when the
    solution carries its forwarding table, as {!Solver.solve}'s do.
    {!compile_ec} is [Solver.solve] followed by this. *)

val compile_abstract :
  ?budget:Budget.t ->
  'a Compile.model ->
  Abstraction.t ->
  [ `Compiled of class_fib | `Unsolved ]
(** The abstract class FIB: solve the abstraction's SRP under the model
    and fold into each abstract next hop the ACL of a representative
    concrete edge (routers are abstract node ids, the origin is
    [abs_dest]). [`Unsolved] when the abstract control plane diverges.
    Raises [Budget.Exhausted] like {!compile_ec}, without its tick.

    The rows [Bonsai_api.compress] gives the classes of one key carry
    one abstraction up to [dest_prefix]; its result is kept per key and
    model, with the abstraction's arrays, and serves a later call only
    when the abstraction's arrays are physically the same. A copied,
    hand-built or corrupted abstraction is compiled on its own. *)

val class_lookup : n:int -> class_fib -> int -> int list
(** The class FIB indexed by router ([0 .. n-1]) once: each lookup is
    O(1), [[]] for a router without an entry. *)

val of_network : ?budget:Budget.t -> Device.network -> Ecs.ec list -> t
(** Solve the given (single-origin) classes under the network's model
    ({!Compile.model}) and build the FIBs; [Ecs.compute net] for the whole
    table. Classes whose control plane diverges contribute no entries and
    are listed in {!unknown_classes}; anycast classes are skipped. *)

val fib_entries : t -> int -> entry list
(** A router's forwarding table, with the ACL-drop detail per entry;
    sorted by prefix. *)

val lookup : t -> int -> Ipv4.t -> int list
(** Longest-prefix-match next hops for an address at a router ([[]] if
    none). *)

val trace : t -> src:int -> Ipv4.t -> Forwarding.path
(** Follow the FIBs from [src] (first next-hop at each router) until the
    address's destination router, a drop, or a loop. *)

val trace_all : t -> src:int -> Ipv4.t -> Forwarding.path list
(** Like {!trace} but following {e every} next hop (ECMP); one result per
    distinct path, depth-first order. *)

val n_entries : t -> int
(** Total number of FIB entries across all routers. *)

val ecs_solved : t -> int

val unknown_classes : t -> Prefix.t list
(** Classes with no forwarding state because their control plane
    diverged — reported, never silently omitted. *)
