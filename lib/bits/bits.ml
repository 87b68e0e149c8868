(* Little-endian limbs of [limb_bits] bits each; the top limb is kept
   masked so that structural equality coincides with value equality. *)

let limb_bits = 16 (* products of two limbs must fit an OCaml int *)
let limb_mask = (1 lsl limb_bits) - 1

type t = { width : int; limbs : int array }

let n_limbs width = if width = 0 then 0 else ((width - 1) / limb_bits) + 1

(* Mask the top limb in place and return the vector. *)
let canonicalize t =
  let n = Array.length t.limbs in
  if n > 0 then begin
    let used = t.width - ((n - 1) * limb_bits) in
    if used < limb_bits then
      t.limbs.(n - 1) <- t.limbs.(n - 1) land ((1 lsl used) - 1)
  end;
  t

let make width = { width; limbs = Array.make (n_limbs width) 0 }

let zero width =
  if width < 0 then invalid_arg "Bits.zero: negative width";
  make width

let width t = t.width

let bit t i =
  if i < 0 then invalid_arg "Bits.bit: negative index";
  if i >= t.width then false
  else t.limbs.(i / limb_bits) land (1 lsl (i mod limb_bits)) <> 0

let set_bit t i v =
  let limb = i / limb_bits and off = i mod limb_bits in
  if v then t.limbs.(limb) <- t.limbs.(limb) lor (1 lsl off)
  else t.limbs.(limb) <- t.limbs.(limb) land lnot (1 lsl off)

let of_int ~width n =
  if width < 0 then invalid_arg "Bits.of_int: negative width";
  if n < 0 then invalid_arg "Bits.of_int: negative value";
  let t = make width in
  let rec fill i n =
    if n <> 0 && i < Array.length t.limbs then begin
      t.limbs.(i) <- n land limb_mask;
      fill (i + 1) (n lsr limb_bits)
    end
  in
  fill 0 n;
  canonicalize t

let of_int64 ~width n =
  let t = make width in
  let rec fill i n =
    if (not (Int64.equal n 0L)) && i < Array.length t.limbs then begin
      t.limbs.(i) <- Int64.to_int (Int64.logand n (Int64.of_int limb_mask));
      fill (i + 1) (Int64.shift_right_logical n limb_bits)
    end
  in
  fill 0 n;
  canonicalize t

(* two bytes per limb *)
let of_bytes b =
  let n = Bytes.length b in
  let t = make (8 * n) in
  for i = 0 to Array.length t.limbs - 1 do
    t.limbs.(i) <-
      (if (2 * i) + 1 < n then Bytes.get_uint16_le b (2 * i)
       else Bytes.get_uint8 b (2 * i))
  done;
  t

let to_bytes t =
  let n = (t.width + 7) / 8 in
  Bytes.init n (fun i ->
      Char.unsafe_chr ((t.limbs.(i / 2) lsr (8 * (i land 1))) land 0xff))

let one width =
  if width < 1 then invalid_arg "Bits.one: width must be >= 1";
  of_int ~width 1

let ones width =
  let t = make width in
  Array.fill t.limbs 0 (Array.length t.limbs) limb_mask;
  canonicalize t

let is_zero t = Array.for_all (fun l -> l = 0) t.limbs

let msb t = if t.width = 0 then false else bit t (t.width - 1)

let highest_set_bit t =
  let rec scan i =
    if i < 0 then -1 else if t.limbs.(i) <> 0 then
      let rec bitscan b = if t.limbs.(i) land (1 lsl b) <> 0 then b else bitscan (b - 1) in
      (i * limb_bits) + bitscan (limb_bits - 1)
    else scan (i - 1)
  in
  scan (Array.length t.limbs - 1)

let to_int t =
  let h = highest_set_bit t in
  if h >= 62 then failwith "Bits.to_int: value too large";
  let v = ref 0 in
  for i = Array.length t.limbs - 1 downto 0 do
    v := (!v lsl limb_bits) lor t.limbs.(i)
  done;
  !v

let to_int_trunc t =
  (* accumulate enough limbs to cover bit 61; the wrap-around of the
     intermediate [lsl] is harmless because the final mask keeps only the
     low 62 bits, which survive arithmetic modulo 2^63 *)
  let v = ref 0 in
  let top = min (Array.length t.limbs) (((62 - 1) / limb_bits) + 1) - 1 in
  for i = top downto 0 do
    v := (!v lsl limb_bits) lor t.limbs.(i)
  done;
  !v land max_int

let to_int64 t =
  let h = highest_set_bit t in
  if h >= 64 then failwith "Bits.to_int64: value too large";
  let v = ref 0L in
  for i = min (Array.length t.limbs) (64 / limb_bits) - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v limb_bits) (Int64.of_int t.limbs.(i))
  done;
  !v

let of_bin_string s =
  let digits =
    String.to_seq s |> Seq.filter (fun c -> c <> '_') |> List.of_seq
  in
  let w = List.length digits in
  let t = make w in
  List.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> set_bit t (w - 1 - i) true
      | _ -> invalid_arg "Bits.of_bin_string: not a binary digit")
    digits;
  t

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Bits: not a hex digit"

let of_hex_string ~width s =
  let digits =
    String.to_seq s |> Seq.filter (fun c -> c <> '_') |> List.of_seq
  in
  let n = List.length digits in
  let t = make width in
  List.iteri
    (fun i c ->
      let v = hex_val c in
      let base = (n - 1 - i) * 4 in
      for b = 0 to 3 do
        if base + b < width && v land (1 lsl b) <> 0 then set_bit t (base + b) true
      done)
    digits;
  canonicalize t

let to_bin_string t =
  if t.width = 0 then "" else
    String.init t.width (fun i -> if bit t (t.width - 1 - i) then '1' else '0')

let to_hex_string t =
  if t.width = 0 then "0" else begin
    let n_digits = ((t.width - 1) / 4) + 1 in
    String.init n_digits (fun i ->
        let base = (n_digits - 1 - i) * 4 in
        let v = ref 0 in
        for b = 3 downto 0 do
          v := (!v lsl 1) lor (if bit t (base + b) then 1 else 0)
        done;
        "0123456789abcdef".[!v])
  end

let pp fmt t = Format.fprintf fmt "%d'h%s" t.width (to_hex_string t)

let check_same_width op a b =
  if a.width <> b.width then
    invalid_arg
      (Printf.sprintf "Bits.%s: width mismatch (%d vs %d)" op a.width b.width)

let add a b =
  check_same_width "add" a b;
  let t = make a.width in
  let carry = ref 0 in
  for i = 0 to Array.length t.limbs - 1 do
    let s = a.limbs.(i) + b.limbs.(i) + !carry in
    t.limbs.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  canonicalize t

let lognot t =
  let r = make t.width in
  Array.iteri (fun i l -> r.limbs.(i) <- lnot l land limb_mask) t.limbs;
  canonicalize r

let neg t =
  let r = lognot t in
  (* add one *)
  let carry = ref 1 in
  let i = ref 0 in
  let n = Array.length r.limbs in
  while !carry <> 0 && !i < n do
    let s = r.limbs.(!i) + !carry in
    r.limbs.(!i) <- s land limb_mask;
    carry := s lsr limb_bits;
    incr i
  done;
  canonicalize r

let sub a b =
  check_same_width "sub" a b;
  add a (neg b)

let mul_wide a b =
  let t = make (a.width + b.width) in
  let na = Array.length a.limbs and nb = Array.length b.limbs in
  for i = 0 to na - 1 do
    if a.limbs.(i) <> 0 then begin
      let carry = ref 0 in
      for j = 0 to nb - 1 do
        if i + j < Array.length t.limbs then begin
          let p = (a.limbs.(i) * b.limbs.(j)) + t.limbs.(i + j) + !carry in
          t.limbs.(i + j) <- p land limb_mask;
          carry := p lsr limb_bits
        end
      done;
      let k = ref (i + nb) in
      while !carry <> 0 && !k < Array.length t.limbs do
        let s = t.limbs.(!k) + !carry in
        t.limbs.(!k) <- s land limb_mask;
        carry := s lsr limb_bits;
        incr k
      done
    end
  done;
  canonicalize t

let resize t w =
  if w = t.width then t
  else begin
    let r = make w in
    let n = min (Array.length r.limbs) (Array.length t.limbs) in
    Array.blit t.limbs 0 r.limbs 0 n;
    canonicalize r
  end

let mul a b =
  check_same_width "mul" a b;
  resize (mul_wide a b) a.width

let logand a b =
  check_same_width "logand" a b;
  let t = make a.width in
  Array.iteri (fun i l -> t.limbs.(i) <- l land b.limbs.(i)) a.limbs;
  t

let logor a b =
  check_same_width "logor" a b;
  let t = make a.width in
  Array.iteri (fun i l -> t.limbs.(i) <- l lor b.limbs.(i)) a.limbs;
  t

let logxor a b =
  check_same_width "logxor" a b;
  let t = make a.width in
  Array.iteri (fun i l -> t.limbs.(i) <- l lxor b.limbs.(i)) a.limbs;
  t

let shift_left t n =
  if n < 0 then invalid_arg "Bits.shift_left: negative shift";
  let r = make t.width in
  for i = t.width - 1 downto n do
    if bit t (i - n) then set_bit r i true
  done;
  r

let shift_right t n =
  if n < 0 then invalid_arg "Bits.shift_right: negative shift";
  let r = make t.width in
  for i = 0 to t.width - 1 - n do
    if bit t (i + n) then set_bit r i true
  done;
  r

let shift_right_arith t n =
  let r = shift_right t n in
  if msb t then
    for i = max 0 (t.width - n) to t.width - 1 do
      set_bit r i true
    done;
  r

let equal a b = a.width = b.width && a.limbs = b.limbs

let compare a b =
  check_same_width "compare" a b;
  let rec go i =
    if i < 0 then 0
    else
      let c = Int.compare a.limbs.(i) b.limbs.(i) in
      if c <> 0 then c else go (i - 1)
  in
  go (Array.length a.limbs - 1)

let lt a b = compare a b < 0
let ge a b = compare a b >= 0

let to_signed_int t =
  if not (msb t) then to_int t
  else
    let m = neg t in
    -to_int m

let of_signed_int ~width n =
  if n >= 0 then of_int ~width n else neg (of_int ~width (-n))

(* limb_bits-wide window of [limbs] starting at bit [pos]; bits past the
   array read as zero (the top limb is canonical, so bits past the width
   are already zero) *)
let get_window limbs n pos =
  let i = pos / limb_bits and off = pos mod limb_bits in
  let lo = if i < n then limbs.(i) lsr off else 0 in
  let hi =
    if off > 0 && i + 1 < n then limbs.(i + 1) lsl (limb_bits - off) else 0
  in
  (lo lor hi) land limb_mask

(* OR the window [v] (<= limb_mask) into [limbs] at bit [pos]; target
   bits must currently be zero; bits past the array are dropped *)
let or_window limbs pos v =
  let i = pos / limb_bits and off = pos mod limb_bits in
  let n = Array.length limbs in
  if i < n then limbs.(i) <- limbs.(i) lor ((v lsl off) land limb_mask);
  if off > 0 && i + 1 < n then
    limbs.(i + 1) <- limbs.(i + 1) lor (v lsr (limb_bits - off))

(* OR all of [src]'s bits into [dst] starting at [dst_pos]; the affected
   bits of [dst] must be zero *)
let blit_bits src dst ~dst_pos =
  let n = Array.length src.limbs in
  let rec go k =
    if k < src.width then begin
      or_window dst.limbs (dst_pos + k) (get_window src.limbs n k);
      go (k + limb_bits)
    end
  in
  go 0

let slice t ~hi ~lo =
  if lo < 0 || hi < lo || hi >= t.width then
    invalid_arg
      (Printf.sprintf "Bits.slice: [%d:%d] out of range for width %d" hi lo
         t.width);
  let w = hi - lo + 1 in
  let r = make w in
  let n = Array.length t.limbs in
  let rec go k =
    if k < w then begin
      or_window r.limbs k (get_window t.limbs n (lo + k));
      go (k + limb_bits)
    end
  in
  go 0;
  canonicalize r

let concat hi lo =
  let r = make (hi.width + lo.width) in
  blit_bits lo r ~dst_pos:0;
  blit_bits hi r ~dst_pos:lo.width;
  canonicalize r

(* head of the list = most-significant bits; single allocation *)
let concat_list parts =
  let total = List.fold_left (fun a p -> a + p.width) 0 parts in
  let r = make total in
  let pos = ref total in
  List.iter
    (fun p ->
      pos := !pos - p.width;
      blit_bits p r ~dst_pos:!pos)
    parts;
  canonicalize r

(* head of the array = most-significant field; [or_window] takes at
   most limb_bits bits at a time *)
let concat_ints ~widths vs =
  let n = Array.length vs in
  if Array.length widths <> n then
    invalid_arg "Bits.concat_ints: widths and values differ in length";
  let total = ref 0 in
  for i = 0 to n - 1 do
    let w = widths.(i) in
    if w < 0 || w > 62 then
      invalid_arg "Bits.concat_ints: field width must be in [0, 62]";
    total := !total + w
  done;
  let r = make !total in
  let pos = ref !total in
  for i = 0 to n - 1 do
    let w = widths.(i) in
    pos := !pos - w;
    let v = ref (vs.(i) land ((1 lsl w) - 1)) and k = ref 0 in
    while !v <> 0 do
      or_window r.limbs (!pos + !k) (!v land limb_mask);
      v := !v lsr limb_bits;
      k := !k + limb_bits
    done
  done;
  r

let sext t w =
  if w <= t.width then resize t w
  else begin
    let r = resize t w in
    if msb t then
      for i = t.width to w - 1 do
        set_bit r i true
      done;
    r
  end

let repeat t n =
  if n < 0 then invalid_arg "Bits.repeat: negative count";
  let rec go acc n = if n = 0 then acc else go (concat acc t) (n - 1) in
  if n = 0 then zero 0 else go t (n - 1)

let extract_int t ~lo ~width:w =
  if w < 0 || w > 62 then
    invalid_arg "Bits.extract_int: width must be in [0, 62]";
  if lo < 0 then invalid_arg "Bits.extract_int: negative lo";
  if w = 0 then 0
  else begin
    let mask = if w >= 62 then max_int else (1 lsl w) - 1 in
    let n = Array.length t.limbs in
    let v = ref 0 in
    let pos = ref (-(lo mod limb_bits)) in
    let i = ref (lo / limb_bits) in
    while !pos < w && !i < n do
      let limb = t.limbs.(!i) in
      (if !pos >= 0 then v := !v lor (limb lsl !pos)
       else v := !v lor (limb lsr - !pos));
      pos := !pos + limb_bits;
      incr i
    done;
    !v land mask
  end

let reverse t =
  let r = make t.width in
  for i = 0 to t.width - 1 do
    if bit t i then set_bit r (t.width - 1 - i) true
  done;
  r
