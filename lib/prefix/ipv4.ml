type t = int

let of_int32_bits n =
  if n < 0 || n > 0xFFFFFFFF then invalid_arg "Ipv4.of_int32_bits: out of range";
  n

let to_int a = a

let of_octets a b c d =
  let ok x = x >= 0 && x <= 255 in
  if not (ok a && ok b && ok c && ok d) then
    invalid_arg "Ipv4.of_octets: octet out of range";
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let of_string_opt s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
    match
      (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c,
       int_of_string_opt d)
    with
    | Some a, Some b, Some c, Some d
      when a >= 0 && a <= 255 && b >= 0 && b <= 255 && c >= 0 && c <= 255
           && d >= 0 && d <= 255 ->
      Some (of_octets a b c d)
    | _ -> None)
  | _ -> None

let of_string s =
  match of_string_opt s with
  | Some a -> a
  | None -> invalid_arg ("Ipv4.of_string: " ^ s)

let to_string a =
  Printf.sprintf "%d.%d.%d.%d"
    ((a lsr 24) land 0xFF)
    ((a lsr 16) land 0xFF)
    ((a lsr 8) land 0xFF)
    (a land 0xFF)

let pp ppf a = Format.pp_print_string ppf (to_string a)
let equal = Int.equal

let bit a i =
  if i < 0 || i > 31 then invalid_arg "Ipv4.bit: index out of range";
  (a lsr (31 - i)) land 1 = 1
