(** IPv4 addresses as 32-bit unsigned values (stored in an OCaml [int]). *)

type t = private int

val of_int32_bits : int -> t
(** [of_int32_bits n] interprets the low 32 bits of [n] as an address.
    @raise Invalid_argument if other bits are set or [n] is negative. *)

val to_int : t -> int

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is [a.b.c.d]. Each octet must be in [0, 255]. *)

val of_string : string -> t
(** Parse dotted-quad notation. @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option
val to_string : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

val bit : t -> int -> bool
(** [bit a i] is bit [i] of the address counting from the most significant
    (bit 0 is the top bit). [i] must be in [0, 31]. *)
