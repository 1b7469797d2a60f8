(** Union-split-find: a partition of the integers [0 .. n-1] supporting
    iterated refinement, as used by the Bonsai abstraction algorithm
    (paper Algorithm 1).

    Unlike classical union-find, the characteristic operation is {e split}:
    carving subsets of an existing class out into fresh classes. Classes
    are identified by dense integer ids ([0 .. num_classes - 1]); an id
    stays with the largest part when its class is split.

    The representation is array-based (Valmari–Lehtinen): each class owns
    a contiguous slice of an element array, so {!find}, {!class_size} and
    creating a class cost O(1), and a split costs O(size of the split-off
    groups + size of the fresh classes), never O(size of the class). *)

type t

val create : int -> t
(** [create n] is the coarsest partition of [0 .. n-1]: a single class
    containing every element. [n] must be non-negative; [n = 0] gives an
    empty partition. *)

val of_class_array : int array -> t
(** [of_class_array a] restores a partition from a class-assignment
    snapshot: elements [x] and [y] share a class iff [a.(x) = a.(y)]
    (the ids themselves are renumbered). Accepts any array of non-negative
    ids (in particular {!to_class_array} and {!canonical}
    output, or an [Abstraction.group_of] table), so a partition computed
    by an earlier refinement can be re-used as the {e seed} of an
    incremental one.
    @raise Invalid_argument on a negative class id. *)

val discrete : int -> t
(** [discrete n] is the finest partition of [0 .. n-1]: every element its
    own class. Equivalent to [create n] followed by splitting each element
    out, but O(n) instead of quadratic (it backs the identity abstraction,
    built once per destination class on degraded runs). *)

val length : t -> int
(** Number of elements (the [n] given to {!create}). *)

val num_classes : t -> int

val find : t -> int -> int
(** [find t x] is the id of the class currently containing [x].
    @raise Invalid_argument if [x] is out of range. *)

val members : t -> int -> int list
(** [members t c] lists the elements of class [c] in increasing order.
    @raise Invalid_argument if [c] is not a live class id. *)

val iter_members : t -> int -> (int -> unit) -> unit
(** [iter_members t c f] applies [f] to the members of class [c] in no
    particular order, without allocating. [f] must not split [c]. *)

val class_size : t -> int -> int
(** O(1). *)

val class_ids : t -> int list
(** Ids of all live classes, in increasing order. *)

val split_off : t -> cls:int -> int list list -> int list
(** [split_off t ~cls groups] splits class [cls] into the given disjoint
    groups of its members plus the rest (the members in no group, when
    there are any). The largest part keeps the id [cls] (the rest, then
    the earliest group, on ties); every other part becomes a fresh class.
    Returns the fresh ids in part order, [[]] when nothing split.
    @raise Invalid_argument if a grouped element is outside [cls] or
    appears twice. *)

val split : t -> int list -> int
(** [split t xs] separates the elements [xs] from the rest of their class
    and returns the id of the class now holding [xs]: the larger of the
    two parts keeps the old id, the other gets a fresh one. All elements
    must currently belong to the {e same} class; splitting a whole class
    is a no-op and returns the existing id.
    @raise Invalid_argument if elements span several classes or are
    duplicated. *)

val pin : t -> int -> int
(** [pin t x] forces [x] into a singleton class and returns its class id
    (a no-op when [x] is already alone). A pinned element stays a
    singleton under any sequence of further {!split}/{!split_off} calls —
    refinement only ever makes classes smaller — which is what makes
    pin sets a monotone repair device: the partition seeded with a
    superset of pins refines the partition seeded with a subset. *)

val is_singleton : t -> int -> bool
(** [is_singleton t x]: the class of [x] has exactly one member. *)

val to_class_array : t -> int array
(** [to_class_array t] is an array mapping each element to its class id. *)

val canonical : t -> int array
(** [canonical t] maps each element to a dense class index in
    [0 .. num_classes - 1]; equal iff in the same class. Useful for
    comparing partitions irrespective of id history. *)

val equal : t -> t -> bool
(** [equal a b] holds when the two partitions group elements identically
    (ids are ignored). *)
