let stats () = (0, 0)
