type t = { width : int; words : int array }

let bits_per_word = Sys.int_size

let nwords width = (width + bits_per_word - 1) / bits_per_word

let create width =
  if width < 0 then invalid_arg "Bitset.create: negative width";
  { width; words = Array.make (max 1 (nwords width)) 0 }

let check t i =
  if i < 0 || i >= t.width then
    invalid_arg (Printf.sprintf "Bitset: index %d out of [0,%d)" i t.width)

let add t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let remove t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let mem t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let copy t = { width = t.width; words = Array.copy t.words }

let assign ~dst ~src =
  if dst.width <> src.width then invalid_arg "Bitset.assign: width mismatch";
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let binop name f ~dst ~src =
  if dst.width <> src.width then
    invalid_arg (Printf.sprintf "Bitset.%s: width mismatch" name);
  let changed = ref false in
  for i = 0 to Array.length dst.words - 1 do
    let v = f dst.words.(i) src.words.(i) in
    if v <> dst.words.(i) then begin
      dst.words.(i) <- v;
      changed := true
    end
  done;
  !changed

let union_into ~dst ~src = binop "union_into" ( lor ) ~dst ~src
let inter_into ~dst ~src = binop "inter_into" ( land ) ~dst ~src
let diff_into ~dst ~src = binop "diff_into" (fun a b -> a land lnot b) ~dst ~src

let equal a b =
  a.width = b.width
  &&
  let rec go i =
    i >= Array.length a.words || (a.words.(i) = b.words.(i) && go (i + 1))
  in
  go 0

let is_empty t =
  let rec go i = i >= Array.length t.words || (t.words.(i) = 0 && go (i + 1)) in
  go 0

(* Both walk set bits only: [w land (w - 1)] clears the lowest set bit,
   also of a negative word (bit [bits_per_word - 1] is the sign bit). *)
let cardinal t =
  let rec pop w acc = if w = 0 then acc else pop (w land (w - 1)) (acc + 1) in
  Array.fold_left (fun acc w -> pop w acc) 0 t.words

(* Index of the lowest set bit of a non-zero word, by halving. *)
let lowest_bit w =
  let w = ref (w land -w) and n = ref 0 in
  if !w land 0xffffffff = 0 then begin n := 32; w := !w lsr 32 end;
  if !w land 0xffff = 0 then begin n := !n + 16; w := !w lsr 16 end;
  if !w land 0xff = 0 then begin n := !n + 8; w := !w lsr 8 end;
  if !w land 0xf = 0 then begin n := !n + 4; w := !w lsr 4 end;
  if !w land 0x3 = 0 then begin n := !n + 2; w := !w lsr 2 end;
  if !w land 0x1 = 0 then incr n;
  !n

(* Set bits of a word, including the sign bit: a SWAR popcount of the
   low [bits_per_word - 1] bits, whose masks fit in a non-negative int,
   plus the sign. Byte sums stay below 64, so the multiply's top byte
   holds the total. *)
let popcount w =
  let x = w land max_int in
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let m2 = 0x3333_3333_3333_3333 in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  ((x * 0x0101_0101_0101_0101) lsr 56) + (if w < 0 then 1 else 0)

let iter_ranked f a ~within ~also =
  if a.width <> within.width || a.width <> also.width then
    invalid_arg "Bitset.iter_ranked: width mismatch";
  let last = ref (Array.length a.words - 1) in
  while !last >= 0 && a.words.(!last) land within.words.(!last) = 0 do
    decr last
  done;
  let rw = ref 0 and ra = ref 0 in
  for i = 0 to !last do
    let ww = within.words.(i) and wa = also.words.(i) in
    let w = ref (a.words.(i) land ww) in
    while !w <> 0 do
      (* [low - 1] masks the bits below the lowest set one; for the sign
         bit it is [max_int], every other bit. *)
      let below = (!w land - !w) - 1 in
      f ((i * bits_per_word) + lowest_bit !w)
        (!rw + popcount (ww land below))
        (!ra + popcount (wa land below));
      w := !w land (!w - 1)
    done;
    rw := !rw + popcount ww;
    ra := !ra + popcount wa
  done

let iter f t =
  for i = 0 to Array.length t.words - 1 do
    let w = ref t.words.(i) in
    while !w <> 0 do
      f ((i * bits_per_word) + lowest_bit !w);
      w := !w land (!w - 1)
    done
  done

let elements t =
  let r = ref [] in
  iter (fun i -> r := i :: !r) t;
  List.rev !r

let of_list width l =
  let t = create width in
  List.iter (add t) l;
  t
