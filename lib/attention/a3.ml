let dim = 64
let n_keys = 320
let operand_scale = 1.0 /. 16.0

let dequantize v = float_of_int v *. operand_scale

(* exp(-x) for x in Q4.4 steps (0 .. 255 -> 0 .. 15.94), Q1.15 results. *)
let exp_lut =
  Array.init 256 (fun i ->
      int_of_float
        (Float.round (32768.0 *. Float.exp (-.float_of_int i /. 16.0))))

let check_dims ~query ~keys ~values =
  if Array.length query <> dim then invalid_arg "A3: query dimension";
  if Array.length keys <> n_keys || Array.length values <> n_keys then
    invalid_arg "A3: key/value row count";
  Array.iter
    (fun r -> if Array.length r <> dim then invalid_arg "A3: row width")
    keys;
  Array.iter
    (fun r -> if Array.length r <> dim then invalid_arg "A3: row width")
    values

(* Stage 1: integer dot products, running max (the first global
   reduction). Scores are "logits" in units of operand_scale^2. *)
let stage1_scores ~query ~keys =
  Array.map
    (fun key ->
      let acc = ref 0 in
      for d = 0 to dim - 1 do
        acc := !acc + (query.(d) * key.(d))
      done;
      !acc)
    keys

(* Stage 2: softmax weights via the exp LUT. The exponent argument is
   (max - score) * scale^2, converted to the LUT's Q4.4 domain. *)
let stage2_weights scores =
  let m = Array.fold_left max min_int scores in
  let scale2 = operand_scale *. operand_scale in
  Array.map
    (fun s ->
      let x = float_of_int (m - s) *. scale2 in
      let idx = int_of_float (Float.round (x *. 16.0)) in
      if idx > 255 then 0 else exp_lut.(idx))
    scores

(* Stage 3: weighted value reduction, normalized by the weight total. *)
let stage3_output ~weights ~values =
  let wsum = Array.fold_left ( + ) 0 weights in
  Array.init dim (fun d ->
      let acc = ref 0 in
      for i = 0 to n_keys - 1 do
        acc := !acc + (weights.(i) * values.(i).(d))
      done;
      (* round-to-nearest division *)
      let v =
        if wsum = 0 then 0
        else (!acc + (wsum / 2)) / wsum
      in
      max (-128) (min 127 v))

let attend_fixed ~query ~keys ~values =
  check_dims ~query ~keys ~values;
  let scores = stage1_scores ~query ~keys in
  let weights = stage2_weights scores in
  stage3_output ~weights ~values

let attend_float ~query ~keys ~values =
  if Array.length query <> dim then invalid_arg "A3: query dimension";
  let scores =
    Array.map
      (fun key ->
        let acc = ref 0.0 in
        for d = 0 to dim - 1 do
          acc := !acc +. (query.(d) *. key.(d))
        done;
        !acc)
      keys
  in
  let m = Array.fold_left Float.max neg_infinity scores in
  let ws = Array.map (fun s -> Float.exp (s -. m)) scores in
  let wsum = Array.fold_left ( +. ) 0.0 ws in
  Array.init dim (fun d ->
      let acc = ref 0.0 in
      Array.iteri (fun i w -> acc := !acc +. (w *. values.(i).(d))) ws;
      !acc /. wsum)

let mean_abs_error fixed float_out =
  let n = Array.length float_out in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. Float.abs (dequantize fixed.(i) -. float_out.(i))
  done;
  !acc /. float_of_int n

let put_rows buf rows =
  Array.iteri
    (fun r row ->
      Array.iteri
        (fun d v -> Bytes.set buf ((r * dim) + d) (Char.chr (v land 0xff)))
        row)
    rows

let row_of_bytes b off =
  Array.init dim (fun d ->
      let v = Char.code (Bytes.get b (off + d)) in
      if v >= 128 then v - 256 else v)

let issue_interval_cycles = 340
let pipeline_latency_cycles = 420
