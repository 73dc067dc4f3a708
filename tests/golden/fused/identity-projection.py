def _fused_plan(values, timestamps):
    _out = []
    _append = _out.append
    for buf, t in zip(values, timestamps):
        blen = len(buf)
        pos = 0
        try:
            s0 = pos
            b = buf[pos]; pos += 1
            if b < 0x80:
                raw = b
            else:
                raw = b & 0x7F
                shift = 7
                while True:
                    b = buf[pos]; pos += 1
                    raw |= (b & 0x7F) << shift
                    if b < 0x80:
                        break
                    shift += 7
            f0 = (raw >> 1) ^ -(raw & 1)
            e0 = pos
            s1 = pos
            while buf[pos] >= 0x80:
                pos += 1
            pos += 1
            e1 = pos
            s2 = pos
            while buf[pos] >= 0x80:
                pos += 1
            pos += 1
            e2 = pos
            s3 = pos
            while buf[pos] >= 0x80:
                pos += 1
            pos += 1
            e3 = pos
        except (IndexError, _StructError):
            raise SerdeError('truncated Avro datum') from None
        if pos != blen:
            if pos > blen:
                raise SerdeError('truncated Avro datum')
            raise SerdeError('trailing bytes after Avro datum: %d' % (blen - pos))
        _append((_join((_c0, buf[s0:e0], _c1, buf[s1:e1], _c2, buf[s2:e2], _c3, buf[s3:e3])), f0, None))
    return _out, ()
