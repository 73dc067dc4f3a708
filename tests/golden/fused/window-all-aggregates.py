def _fused_plan(values, timestamps):
    _out = []
    _append = _out.append
    _windows0 = _op0._windows
    _mput0 = _op0._messages.put
    _mdel0 = _op0._messages.delete
    _sput0 = _op0._state.put
    _touched0 = {}
    _ret0 = 0
    _n0 = 0
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
            f1 = (raw >> 1) ^ -(raw & 1)
            e1 = pos
            while buf[pos] >= 0x80:
                pos += 1
            pos += 1
            s3 = pos
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
            f3 = (raw >> 1) ^ -(raw & 1)
            e3 = pos
        except (IndexError, _StructError):
            raise SerdeError('truncated Avro datum') from None
        if pos != blen:
            if pos > blen:
                raise SerdeError('truncated Avro datum')
            raise SerdeError('trailing bytes after Avro datum: %d' % (blen - pos))
        _k0 = ((f1), )
        _w0 = _windows0.get(_k0)
        if _w0 is None:
            _w0 = _windows0[_k0] = _WindowState([[0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]], [None, None, None, _deque(), _deque()], {'seq': 0})
        _s0 = _w0.record
        _q0 = _s0['seq']
        _s0['seq'] = _q0 + 1
        _touched0[_k0] = _s0
        _o0 = (f0)
        _v0_0 = (f3)
        _v0_1 = None
        _v0_2 = (f3)
        _v0_3 = (f3)
        _v0_4 = (f3)
        _mput0(_k0 + (_q0,), [_o0, _v0_0, _v0_1, _v0_2, _v0_3, _v0_4])
        _rows0 = _w0.rows
        _x0_0 = _w0.accs[0]
        _x0_1 = _w0.accs[1]
        _x0_2 = _w0.accs[2]
        _d0_3 = _w0.minmax[3]
        _d0_4 = _w0.minmax[4]
        _rows0.append((_o0, _q0, (_v0_0, _v0_1, _v0_2, _v0_3, _v0_4, )))
        _ret0 += 1
        if _v0_0 is not None:
            _x0_0[0] += _v0_0
            _x0_0[2] += 1
        _x0_1[1] += 1
        if _v0_2 is not None:
            _x0_2[0] += _v0_2
            _x0_2[2] += 1
        if _v0_3 is not None:
            while _d0_3 and _d0_3[-1][2] >= _v0_3:
                _d0_3.pop()
            _d0_3.append((_o0, _q0, _v0_3))
        if _v0_4 is not None:
            while _d0_4 and _d0_4[-1][2] <= _v0_4:
                _d0_4.pop()
            _d0_4.append((_o0, _q0, _v0_4))
        while len(_rows0) > 3:
            _e = _rows0.popleft()
            _v = _e[2][0]
            if _v is not None:
                _x0_0[0] -= _v
                _x0_0[2] -= 1
            _x0_1[1] -= 1
            _v = _e[2][2]
            if _v is not None:
                _x0_2[0] -= _v
                _x0_2[2] -= 1
            if _d0_3 and _d0_3[0][1] == _e[1]:
                _d0_3.popleft()
            if _d0_4 and _d0_4[0][1] == _e[1]:
                _d0_4.popleft()
            _mdel0(_k0 + (_e[1],))
            _ret0 -= 1
        _win0 = ((_x0_0[0] if _x0_0[2] else None), _x0_1[1], (_x0_2[0] / _x0_2[2] if _x0_2[2] else None), (_d0_3[0][2] if _d0_3 else None), (_d0_4[0][2] if _d0_4 else None), )
        _n0 += 1
        out = bytearray()
        out.append(2)
        out += buf[s0:e0]
        out.append(2)
        out += buf[s1:e1]
        out.append(2)
        out += buf[s3:e3]
        v = ((_win0[0]))
        if v is None:
            out.append(0)
        elif v.__class__ is int and -9223372036854775808 <= v <= 9223372036854775807:
            out.append(2)
            n = v << 1 if v >= 0 else ((-1 - v) << 1) | 1
            if n < 0x80:
                out.append(n)
            else:
                while n > 0x7F:
                    out.append((n & 0x7F) | 0x80)
                    n >>= 7
                out.append(n)
        else:
            enc3(v, out)
        v = ((_win0[1]))
        if v is None:
            out.append(0)
        elif v.__class__ is int and -9223372036854775808 <= v <= 9223372036854775807:
            out.append(2)
            n = v << 1 if v >= 0 else ((-1 - v) << 1) | 1
            if n < 0x80:
                out.append(n)
            else:
                while n > 0x7F:
                    out.append((n & 0x7F) | 0x80)
                    n >>= 7
                out.append(n)
        else:
            enc4(v, out)
        v = ((_win0[2]))
        if v is None:
            out.append(0)
        elif v.__class__ is float:
            out.append(2)
            out += _DOUBLE.pack(v)
        else:
            enc5(v, out)
        v = ((_win0[3]))
        if v is None:
            out.append(0)
        elif v.__class__ is int and -2147483648 <= v <= 2147483647:
            out.append(2)
            n = v << 1 if v >= 0 else ((-1 - v) << 1) | 1
            if n < 0x80:
                out.append(n)
            else:
                while n > 0x7F:
                    out.append((n & 0x7F) | 0x80)
                    n >>= 7
                out.append(n)
        else:
            enc6(v, out)
        v = ((_win0[4]))
        if v is None:
            out.append(0)
        elif v.__class__ is int and -2147483648 <= v <= 2147483647:
            out.append(2)
            n = v << 1 if v >= 0 else ((-1 - v) << 1) | 1
            if n < 0x80:
                out.append(n)
            else:
                while n > 0x7F:
                    out.append((n & 0x7F) | 0x80)
                    n >>= 7
                out.append(n)
        else:
            enc7(v, out)
        _append((bytes(out), f0, None))
    for _key, _record in _touched0.items():
        _sput0(_key, _record)
    _op0._retained += _ret0
    return _out, (_n0,)
