type field_kind = Uint of int | Address
type field = { f_name : string; f_kind : field_kind }

type command = {
  cmd_name : string;
  cmd_funct : int;
  fields : field list;
  has_response : bool;
  resp_bits : int;
}

let field_bits f = match f.f_kind with Uint w -> w | Address -> 64
let payload_bits c = List.fold_left (fun acc f -> acc + field_bits f) 0 c.fields
let rocc_beats c = max 1 (((payload_bits c - 1) / 128) + 1)

let make ~name ~funct ?(response_bits = 0) fields =
  if name = "" then invalid_arg "Cmd_spec.make: empty command name";
  if funct < 0 || funct > 127 then invalid_arg "Cmd_spec.make: funct range";
  if response_bits < 0 || response_bits > 64 then
    invalid_arg "Cmd_spec.make: response width";
  let seen = Hashtbl.create 8 in
  let fields =
    List.map
      (fun (f_name, f_kind) ->
        if f_name = "" then invalid_arg "Cmd_spec.make: empty field name";
        if Hashtbl.mem seen f_name then
          invalid_arg ("Cmd_spec.make: duplicate field " ^ f_name);
        Hashtbl.add seen f_name ();
        (match f_kind with
        | Uint w when w < 1 || w > 64 ->
            invalid_arg ("Cmd_spec.make: bad width for " ^ f_name)
        | _ -> ());
        { f_name; f_kind })
      fields
  in
  let c =
    {
      cmd_name = name;
      cmd_funct = funct;
      fields;
      has_response = true;
      resp_bits = response_bits;
    }
  in
  if rocc_beats c > 8 then invalid_arg "Cmd_spec.make: payload too large";
  c

let mask64 w =
  if w >= 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L

(* Fields pack LSB-first into a contiguous payload, then split into 64-bit
   words; words pair up into (payload1, payload2) per beat. *)
let pack c values =
  let declared = List.map (fun f -> f.f_name) c.fields in
  let given = List.map fst values in
  if List.sort compare declared <> List.sort compare given then
    invalid_arg "Cmd_spec.pack: field set mismatch";
  let beats = rocc_beats c in
  let words = Array.make (beats * 2) 0L in
  let pos = ref 0 in
  List.iter
    (fun f ->
      let w = field_bits f in
      let v = List.assoc f.f_name values in
      if w < 64 && Int64.unsigned_compare v (mask64 w) > 0 then
        invalid_arg ("Cmd_spec.pack: value too wide for " ^ f.f_name);
      (* write w bits of v at bit offset !pos *)
      let word = !pos / 64 and off = !pos mod 64 in
      words.(word) <-
        Int64.logor words.(word) (Int64.shift_left v off);
      if off + w > 64 then begin
        let spill = Int64.shift_right_logical v (64 - off) in
        words.(word + 1) <- Int64.logor words.(word + 1) spill
      end;
      pos := !pos + w)
    c.fields;
  List.init beats (fun i -> (words.(2 * i), words.((2 * i) + 1)))

let unpack c pairs =
  let beats = rocc_beats c in
  if List.length pairs <> beats then
    invalid_arg "Cmd_spec.unpack: wrong number of beats";
  let words = Array.make (beats * 2) 0L in
  List.iteri
    (fun i (p1, p2) ->
      words.(2 * i) <- p1;
      words.((2 * i) + 1) <- p2)
    pairs;
  let pos = ref 0 in
  List.map
    (fun f ->
      let w = field_bits f in
      let word = !pos / 64 and off = !pos mod 64 in
      let v = Int64.shift_right_logical words.(word) off in
      let v =
        if off + w > 64 then
          Int64.logor v (Int64.shift_left words.(word + 1) (64 - off))
        else v
      in
      let v = Int64.logand v (mask64 w) in
      pos := !pos + w;
      (f.f_name, v))
    c.fields

let decode c beats =
  let args =
    unpack c (List.map (fun b -> (b.Rocc.payload1, b.Rocc.payload2)) beats)
  in
  fun name -> Int64.to_int (List.assoc name args)
