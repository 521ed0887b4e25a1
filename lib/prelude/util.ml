let ceil_log2 n =
  if n < 1 then invalid_arg "Util.ceil_log2";
  let rec go k p = if p >= n then k else go (k + 1) (p * 2) in
  go 0 1

let bit_width n =
  if n < 0 then invalid_arg "Util.bit_width";
  let rec go k p = if n < p then k else go (k + 1) (p * 2) in
  go 1 2

let log_star n =
  let rec go k m = if m <= 1 then k else go (k + 1) (ceil_log2 m) in
  go 0 n

let sum = List.fold_left ( + ) 0

let max_of = function
  | [] -> invalid_arg "Util.max_of: empty list"
  | x :: rest -> List.fold_left max x rest

let min_of = function
  | [] -> invalid_arg "Util.min_of: empty list"
  | x :: rest -> List.fold_left min x rest

let range n = List.init n (fun i -> i)

let array_for_all2 f a b =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (f a.(i) b.(i) && go (i + 1)) in
  go 0

let array_equal eq a b = array_for_all2 eq a b

(* FNV-1a over 64 bits.  The accumulator is a local [int64 ref] that
   no closure captures, so the native compiler keeps it unboxed and
   only the result is allocated. *)
let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let fnv1a64 s =
  let h = ref fnv_offset in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        fnv_prime
  done;
  !h

let fnv1a64_words_into ~lead words len dst off =
  if len < 0 || len > Array.length words then
    invalid_arg "Util.fnv1a64_words_into";
  let h =
    ref (Int64.mul (Int64.logxor fnv_offset (Int64.of_int (Char.code lead))) fnv_prime)
  in
  for i = 0 to len - 1 do
    (* Byte b of the sign-extended 64-bit image of [w]: arithmetic
       shifts of the 63-bit int reproduce the sign byte for b = 7. *)
    let w = Array.unsafe_get words i in
    for b = 0 to 7 do
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int ((w asr (8 * b)) land 0xff)))
          fnv_prime
    done
  done;
  dst.(off) <- Int64.to_int (Int64.logand !h 0xFFFF_FFFFL);
  dst.(off + 1) <- Int64.to_int (Int64.shift_right_logical !h 32)
