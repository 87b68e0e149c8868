type watched = {
  w_name : string;
  w_signal : Signal.t;
  w_code : string;
  mutable w_last : Bits.t option;
}

type t = {
  sim : Cyclesim.t;
  watched : watched list;
  buf : Buffer.t;
  mutable time : int;
}

(* VCD identifier codes: printable ASCII 33..126, shortest-first. *)
let code_of_index i =
  let base = 94 in
  let rec go i acc =
    let c = Char.chr (33 + (i mod base)) in
    let acc = String.make 1 c ^ acc in
    if i < base then acc else go ((i / base) - 1) acc
  in
  go i ""

(* one sample per timestep of the composer's 4000 ps fabric clock *)
let timescale_ps = 4000

let create sim ~signals =
  let watched =
    List.mapi
      (fun i (name, s) ->
        { w_name = name; w_signal = s; w_code = code_of_index i; w_last = None })
      signals
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "$date today $end\n";
  Buffer.add_string buf "$version beethoven-ocaml cyclesim $end\n";
  Buffer.add_string buf (Printf.sprintf "$timescale %d ps $end\n" timescale_ps);
  Buffer.add_string buf "$scope module top $end\n";
  List.iter
    (fun w ->
      Buffer.add_string buf
        (Printf.sprintf "$var wire %d %s %s $end\n"
           (Signal.width w.w_signal) w.w_code w.w_name))
    watched;
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  { sim; watched; buf; time = 0 }

let emit_value buf w v =
  if Bits.width v = 1 then
    Buffer.add_string buf
      (Printf.sprintf "%s%s\n" (if Bits.bit v 0 then "1" else "0") w.w_code)
  else
    Buffer.add_string buf
      (Printf.sprintf "b%s %s\n" (Bits.to_bin_string v) w.w_code)

let sample t =
  let changes =
    List.filter_map
      (fun w ->
        let v = Cyclesim.peek t.sim w.w_signal in
        match w.w_last with
        | Some last when Bits.equal last v -> None
        | _ ->
            w.w_last <- Some v;
            Some (w, v))
      t.watched
  in
  if changes <> [] then begin
    Buffer.add_string t.buf (Printf.sprintf "#%d\n" t.time);
    List.iter (fun (w, v) -> emit_value t.buf w v) changes
  end;
  t.time <- t.time + 1

let contents t = Buffer.contents t.buf

let write_file t path =
  let oc = open_out path in
  output_string oc (contents t);
  close_out oc
