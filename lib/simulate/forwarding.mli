(** Forwarding verdicts over a next-hop relation.

    One module answers "where does traffic from [u] end up?" for every
    forwarding relation in the repository: a solution's [fwd]
    ({!Solution.reaches}, [Properties]), a compiled class FIB
    ([Dataplane]) and an abstract class FIB ([Dp_bisim],
    [Reachability]). {!walk} enumerates the paths; {!outcomes} summarizes
    the same path set in linear time. *)

type path =
  | Delivered of int list  (** the path taken, source first *)
  | Dropped of int list  (** the last router has no next hop *)
  | Looped of int list  (** the path revisits its last router *)

val walk :
  all:bool -> lookup:(int -> int list) -> dest:int option -> int -> path list
(** The paths from a router: [lookup u] gives [u]'s next hops, [dest] the
    destination router ([None]: nothing delivers). Following the first
    next hop only ([all = false]: one path), or every one (one result per
    distinct path, depth-first order — exponential in path diversity). *)

type outcome = {
  delivers : bool;  (** some path reaches the destination *)
  drops : bool;  (** some path reaches a router (not the destination)
                     with no next hop *)
  loops : bool;  (** some path enters a forwarding cycle *)
}
(** The outcomes of the ECMP path set from one router. Each flag is exact:
    the three are reachability properties of the relation (paths stop at
    the destination), so they hold iff [walk ~all:true] yields a path of
    that kind. *)

val outcomes : n:int -> lookup:(int -> int list) -> dest:int -> int -> outcome
(** [outcomes ~n ~lookup ~dest] is a memoizing query over routers
    [0 .. n-1]; [lookup u] gives [u]'s next hops ([lookup dest] is never
    consulted). Strongly connected components are condensed as they are
    found (Tarjan), so all queries on one closure together cost
    O(nodes + edges). *)

val reaches : outcome -> bool
(** Delivers, and no path drops or loops: every forwarding path ends at
    the destination. *)
