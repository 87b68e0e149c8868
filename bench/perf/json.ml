(* Just enough JSON for the benchmark's own records: a printer for
   numbers and strings, and a reader for the lines [perf.exe] writes. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* Shortest of %.15g / %.17g that reads back as the same float. *)
let num x =
  if not (Float.is_finite x) then invalid_arg "Json.num: not finite";
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num x -> num x
  | Str s -> str s
  | List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kv ->
      "{"
      ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ to_string v) kv)
      ^ "}"

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at byte %d" what !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then begin
      incr pos;
      ws ()
    end
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %c" c) in
  let word w v =
    if !pos + String.length w <= n && String.sub s !pos (String.length w) = w
    then begin
      pos := !pos + String.length w;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          (match peek () with
          | 'n' -> Buffer.add_char b '\n'
          | 'u' ->
              Buffer.add_char b
                (Char.chr (int_of_string ("0x" ^ String.sub s (!pos + 1) 4)));
              pos := !pos + 4
          | c -> Buffer.add_char b c);
          incr pos;
          go ()
      | '\000' -> fail "unterminated string"
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let members close item =
    ws ();
    if peek () = close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        ws ();
        match peek () with
        | ',' ->
            incr pos;
            go acc
        | c when c = close ->
            incr pos;
            List.rev acc
        | _ -> fail "expected , or close"
      in
      go []
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        Obj
          (members '}' (fun () ->
               ws ();
               let k = string () in
               ws ();
               expect ':';
               (k, value ())))
    | '[' ->
        incr pos;
        List (members ']' value)
    | '"' -> Str (string ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | _ ->
        let start = !pos in
        while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some x -> Num x
        | None -> fail "bad value")
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing data";
  v

let member k = function
  | Obj kv -> List.assoc_opt k kv
  | _ -> None
