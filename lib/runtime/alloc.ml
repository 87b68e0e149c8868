type free_error = Double_free | Never_allocated

exception Invalid_free of { addr : int; reason : free_error }

let () =
  Printexc.register_printer (function
    | Invalid_free { addr; reason } ->
        Some
          (Printf.sprintf "Alloc.Invalid_free: 0x%x %s" addr
             (match reason with
             | Double_free -> "was already freed"
             | Never_allocated -> "was never allocated"))
    | _ -> None)

(* one hugepage-ish granule / AXI burst window *)
let alignment = 4096

type t = {
  size : int;
  (* live allocations: base -> length (aligned) *)
  live : (int, int) Hashtbl.t;
  (* bases freed and not reallocated since — distinguishes a double-free
     from freeing garbage *)
  freed : (int, unit) Hashtbl.t;
  (* free list: sorted (base, length) *)
  mutable free_list : (int * int) list;
}

let create ~size () =
  if size <= 0 then invalid_arg "Alloc.create: size";
  {
    size;
    live = Hashtbl.create 64;
    freed = Hashtbl.create 64;
    free_list = [ (0, size) ];
  }

let round_up n = (n + alignment - 1) / alignment * alignment

let alloc t n =
  if n <= 0 then invalid_arg "Alloc.alloc: size";
  let n = round_up n in
  let rec go acc = function
    | [] -> None
    | (base, len) :: rest ->
        if len >= n then begin
          let remaining =
            if len = n then rest else (base + n, len - n) :: rest
          in
          t.free_list <- List.rev_append acc remaining;
          Hashtbl.add t.live base n;
          Hashtbl.remove t.freed base;
          Some base
        end
        else go ((base, len) :: acc) rest
  in
  go [] t.free_list

let free t base =
  match Hashtbl.find_opt t.live base with
  | None ->
      let reason =
        if Hashtbl.mem t.freed base then Double_free else Never_allocated
      in
      raise (Invalid_free { addr = base; reason })
  | Some len ->
      Hashtbl.remove t.live base;
      Hashtbl.replace t.freed base ();
      (* insert sorted and coalesce *)
      let rec insert = function
        | [] -> [ (base, len) ]
        | (b, l) :: rest when base < b -> (base, len) :: (b, l) :: rest
        | hd :: rest -> hd :: insert rest
      in
      let rec coalesce = function
        | (b1, l1) :: (b2, l2) :: rest when b1 + l1 = b2 ->
            coalesce ((b1, l1 + l2) :: rest)
        | hd :: rest -> hd :: coalesce rest
        | [] -> []
      in
      t.free_list <- coalesce (insert t.free_list)

let allocated_bytes t = Hashtbl.fold (fun _ len acc -> acc + len) t.live 0
let free_bytes t = List.fold_left (fun acc (_, l) -> acc + l) 0 t.free_list
let n_blocks t = Hashtbl.length t.live

let check_invariants t =
  let blocks =
    Hashtbl.fold (fun b l acc -> (b, l) :: acc) t.live []
    @ t.free_list
    |> List.sort compare
  in
  let rec no_overlap = function
    | (b1, l1) :: ((b2, _) :: _ as rest) ->
        b1 + l1 <= b2 && no_overlap rest
    | _ -> true
  in
  let aligned =
    Hashtbl.fold (fun b _ acc -> acc && b mod alignment = 0) t.live true
  in
  let total =
    List.fold_left (fun acc (_, l) -> acc + l) 0 blocks = t.size
  in
  no_overlap blocks && aligned && total
  && allocated_bytes t + free_bytes t = t.size
