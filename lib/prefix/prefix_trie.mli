(** Binary prefix trie mapping IPv4 prefixes to values.

    Bonsai partitions the many destinations of a network into equivalence
    classes using a prefix trie whose leaves carry destination node sets
    (paper §5.1). This module is the generic container; the EC computation
    lives in the core library. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> Prefix.t -> 'a -> unit
(** [add t p v] binds [p] to [v], replacing any previous binding of exactly
    [p]. Bindings at other (even overlapping) prefixes are unaffected. *)

val update : 'a t -> Prefix.t -> ('a option -> 'a) -> unit
(** [update t p f] rebinds [p] to [f (find_exact t p)]. *)

val find_exact : 'a t -> Prefix.t -> 'a option

val lpm : 'a t -> Ipv4.t -> (Prefix.t * 'a) option
(** Longest-prefix match for an address. *)

val lpm_prefix : 'a t -> Prefix.t -> (Prefix.t * 'a) option
(** [lpm_prefix t p] is the longest bound prefix that contains all of [p]. *)

val fold : 'a t -> (Prefix.t -> 'a -> 'b -> 'b) -> 'b -> 'b
(** Folds over bound prefixes in trie (depth-first, shorter prefixes first
    on equal paths). *)

val cardinal : 'a t -> int
val bindings : 'a t -> (Prefix.t * 'a) list
