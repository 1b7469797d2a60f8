(** The data plane: per-router forwarding tables and packet tracing.

    Batfish "first simulates the control plane to produce the data plane"
    (paper §8) and then answers packet-level queries on it. This module is
    that step: it solves the SRP of every destination class and assembles,
    for each router, a longest-prefix-match FIB mapping destination
    prefixes to ECMP next-hop sets — with each interface's outbound ACL
    folded in, so the emitted table is what the device would actually
    forward on. Packets are then traced hop by hop.

    Built either from a concrete network or from a compressed one (one
    abstract data plane per destination class is meaningless — instead,
    {!of_network} accepts any configured network, so the emitted abstract
    configurations of {!Abstract_config} work directly).

    The per-class compiler {!compile_ec} is the unit the differ
    ({!Dp_diff}) and the bisimulation checker ({!Dp_bisim}) recompile
    selectively. *)

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

type hop_result =
  | Delivered of int list  (** the path taken, source first *)
  | Dropped of int list  (** no FIB entry at the last node of the path *)
  | Looped of int list  (** the path revisits a node *)

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
    when the allowance runs out mid-solve. *)

val class_fib : Device.network -> Ecs.ec -> 'a Solution.t -> class_fib
(** The class FIB of a solved class: each router's {!Solution.fwd} with
    the outbound ACLs folded in. It evaluates no transfer when the
    solution carries its forwarding table, as {!Solver.solve}'s do.
    {!compile_ec} is [Solver.solve] followed by this. *)

val of_network : ?budget:Budget.t -> Device.network -> t
(** Solve every (single-origin) destination class under the network's
    model ({!Compile.model}) and build the FIBs. Classes whose control
    plane diverges contribute no entries and are listed in
    {!unknown_classes}. *)

val fib : t -> int -> (Prefix.t * int list) list
(** A router's forwarding table: prefix, permitted next hops; sorted by
    prefix. *)

val fib_entries : t -> int -> entry list
(** Like {!fib} but with the ACL-drop detail per entry. *)

val lookup : t -> int -> Ipv4.t -> int list
(** Longest-prefix-match next hops for an address at a router ([[]] if
    none). *)

val trace : t -> src:int -> Ipv4.t -> hop_result
(** Follow the FIBs from [src] (first next-hop at each router) until the
    address's destination router, a drop, or a loop. *)

val trace_all : t -> src:int -> Ipv4.t -> hop_result list
(** Like {!trace} but following {e every} next hop (ECMP); one result per
    distinct path, depth-first order. *)

val walk :
  all:bool ->
  lookup:(int -> int list) ->
  dest:int option ->
  int ->
  hop_result list
(** The underlying FIB walk over an arbitrary lookup function (used by
    {!Dp_bisim} to trace single-class and abstract FIBs). *)

val n_entries : t -> int
(** Total number of FIB entries across all routers. *)

val ecs_solved : t -> int

val unknown_classes : t -> Prefix.t list
(** Classes with no forwarding state because their control plane
    diverged — reported, never silently omitted. *)

(** {1 Address-set queries (the NoD-style analysis)} *)

val addresses_via : t -> int -> int -> Addr_set.t
(** The set of destination addresses router [u] forwards to neighbor
    [v] — the union of the governing ranges of every class whose FIB entry
    at [u] lists [v] as a next hop. *)

val addresses_delivered : t -> src:int -> dst:int -> Addr_set.t
(** "All packets that can traverse between source and destination" (the
    paper's Batfish query): destination addresses originated at [dst] that
    traffic entering at [src] actually reaches (along at least one ECMP
    path). *)
