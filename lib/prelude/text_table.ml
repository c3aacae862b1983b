let render ~header rows =
  let ncols = List.length header in
  let pad_row r =
    let len = List.length r in
    if len >= ncols then r else r @ List.init (ncols - len) (fun _ -> "")
  in
  let rows = List.map pad_row rows in
  let widths = Array.make ncols 0 in
  let measure r =
    List.iteri
      (fun i cell -> if i < ncols then widths.(i) <- max widths.(i) (String.length cell))
      r
  in
  measure header;
  List.iter measure rows;
  let buf = Buffer.create 1024 in
  let emit r =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        if i < ncols - 1 then
          Buffer.add_string buf (String.make (widths.(i) - String.length cell) ' '))
      r;
    Buffer.add_char buf '\n'
  in
  emit header;
  let rule_len = Array.fold_left ( + ) 0 widths + (2 * (ncols - 1)) in
  Buffer.add_string buf (String.make rule_len '-');
  Buffer.add_char buf '\n';
  List.iter emit rows;
  Buffer.contents buf
