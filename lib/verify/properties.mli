(** Path properties preserved by CP-equivalence (paper §4.4).

    All properties are judged on a stable solution's forwarding relation,
    by {!Forwarding.outcomes} (reachability, black holes, loops, multipath
    consistency) or by enumerating its paths with {!Forwarding.walk}
    (lengths, waypoints); by Theorems 4.2/4.5 each holds on the concrete
    network iff it holds (modulo the abstraction functions) on the
    compressed network. *)

val reachable : 'a Solution.t -> int -> bool
(** Every forwarding path from the node reaches the destination, and there
    is at least one. *)

val path_lengths : 'a Solution.t -> src:int -> int list
(** Lengths of all forwarding paths from [src] that reach the destination;
    sorted ascending. *)

val black_hole : 'a Solution.t -> int -> bool
(** Some forwarding path from the node ends at a non-destination with no
    forwarding edge. *)

val has_routing_loop : 'a Solution.t -> bool
(** The forwarding relation contains a cycle. *)

val waypointed : 'a Solution.t -> src:int -> waypoints:int list -> bool
(** Every forwarding path from [src] that reaches the destination passes
    through one of the waypoints. Vacuously true if nothing reaches. *)

val multipath_consistent : 'a Solution.t -> src:int -> bool
(** Not the case that traffic from [src] reaches the destination along one
    path but is dropped along another (paper's multipath consistency). *)
